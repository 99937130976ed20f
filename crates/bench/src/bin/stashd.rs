//! `stashd` — the resident simulation daemon.
//!
//! ```text
//! cargo run --release -p bench --bin stashd                      # stdio transport
//! cargo run --release -p bench --bin stashd -- --socket /tmp/s   # unix socket
//! cargo run --release -p bench --bin stashd -- --cache-dir .stash-cache
//! ```
//!
//! Speaks the line-delimited JSON protocol of `bench::server` (grammar
//! in `DESIGN.md` §16): one request object per line in, `hello` /
//! `progress` / `result` / `error` / `stats` / `bye` events out. The
//! daemon keeps lowered program IRs resident and memoizes results in a
//! content-addressed cache, so repeated requests are answered without
//! re-simulating. Requests queued while a batch runs are picked up
//! together and share the simulation job pool; every line is answered
//! in input order, so a `stats` line or a refused line waits for the
//! results of the requests before it.
//!
//! A malformed or failing request produces an `error` event, and so
//! does a line longer than `server::MAX_LINE_BYTES` (1 MiB) or one that
//! is not UTF-8; the process only exits on `shutdown` or end-of-input.
//!
//! Flags:
//!
//! ```text
//! --socket PATH   serve a Unix-domain socket instead of stdio
//! --cache-dir D   persist the result cache under D (default: memory only)
//! --cache-max N   bound the disk cache to N entries (default 512)
//! --no-cache      disable the result cache entirely
//! --threads N     simulation pool width (default: all cores)
//! ```

use std::io::{BufReader, Write};
use std::num::NonZeroUsize;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use bench::cli;
use bench::json;
use bench::server::{
    error_event, parse_request, read_line, Request, ResultCache, Server, CODE_VERSION,
    MAX_LINE_BYTES,
};

fn hello_line() -> String {
    format!(
        "{{\"event\":\"hello\",\"code_version\":\"{}\",\"protocol\":1}}",
        cli::json_escape(CODE_VERSION),
    )
}

/// What one input line asks for, beyond compute requests.
enum Parsed {
    Compute(u64, Request),
    Stats,
    Shutdown,
    /// A refused line, answered by this `error` event.
    Bad(String),
}

fn parse_line(line: &str) -> Parsed {
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            let message = format!("request is not valid JSON: {e}");
            return Parsed::Bad(error_event(0, "?", &message));
        }
    };
    let id = v.get_u64("id").unwrap_or(0);
    match v.get_str("cmd") {
        Some("stats") => Parsed::Stats,
        Some("shutdown") => Parsed::Shutdown,
        cmd => match parse_request(&v) {
            Ok(req) => Parsed::Compute(id, req),
            Err(e) => Parsed::Bad(error_event(id, cmd.unwrap_or("?"), &e)),
        },
    }
}

/// Runs the requests collected so far as one pooled batch, so that an
/// event for a later line never overtakes their results.
fn run_batch(server: &Mutex<Server>, batch: &mut Vec<(u64, Request)>, emit: &mut dyn FnMut(&str)) {
    if !batch.is_empty() {
        server
            .lock()
            .expect("server lock")
            .handle_batch(batch, emit);
        batch.clear();
    }
}

/// Serves one connection's line stream until EOF or `shutdown`, answering
/// in input order; a line the reader refused is answered by an `error`
/// event in its place. Returns true when a `shutdown` command was seen.
fn serve_lines(
    server: &Mutex<Server>,
    lines: &mpsc::Receiver<Result<String, String>>,
    out: &mut dyn Write,
) -> bool {
    let mut emit = |line: &str| {
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    loop {
        // Block on the first request, then drain whatever queued up
        // behind it: consecutive requests become one pooled batch.
        let Ok(first) = lines.recv() else {
            return false;
        };
        let mut raw = vec![first];
        while let Ok(next) = lines.try_recv() {
            raw.push(next);
        }
        let mut batch: Vec<(u64, Request)> = Vec::new();
        for line in &raw {
            let parsed = match line {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => parse_line(line),
                Err(refusal) => Parsed::Bad(error_event(0, "?", refusal)),
            };
            if !matches!(parsed, Parsed::Compute(..)) {
                run_batch(server, &mut batch, &mut emit);
            }
            match parsed {
                Parsed::Compute(id, req) => batch.push((id, req)),
                Parsed::Stats => {
                    let line = server.lock().expect("server lock").stats_event();
                    emit(&line);
                }
                Parsed::Shutdown => {
                    emit("{\"event\":\"bye\"}");
                    return true;
                }
                Parsed::Bad(event) => emit(&event),
            }
        }
        run_batch(server, &mut batch, &mut emit);
    }
}

/// Pumps a reader's lines, each bounded by [`MAX_LINE_BYTES`], into a
/// channel from a dedicated thread, so the serving loop can batch what
/// queues up between turns. Both transports read through it.
fn line_pump<R: std::io::Read + Send + 'static>(
    reader: R,
) -> mpsc::Receiver<Result<String, String>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(reader);
        while let Ok(Some(line)) = read_line(&mut reader, MAX_LINE_BYTES) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    rx
}

fn serve_stdio(server: &Mutex<Server>) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{}", hello_line());
    let _ = out.flush();
    let lines = line_pump(std::io::stdin());
    serve_lines(server, &lines, &mut out);
}

fn serve_socket(server: &Arc<Mutex<Server>>, path: &str) {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path).unwrap_or_else(|e| {
        eprintln!("stashd: cannot bind {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("stashd: listening on {path}");
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let server = Arc::clone(server);
        let socket_path = path.to_string();
        std::thread::spawn(move || {
            let Ok(reader) = stream.try_clone() else {
                return;
            };
            let mut writer = stream;
            let _ = writeln!(writer, "{}", hello_line());
            let lines = line_pump(reader);
            if serve_lines(&server, &lines, &mut writer) {
                // A shutdown command stops the whole daemon, not just
                // this connection; the accept loop above is blocked, so
                // exit from here after removing the socket file.
                let _ = std::fs::remove_file(&socket_path);
                std::process::exit(0);
            }
        });
    }
    let _ = std::fs::remove_file(path);
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let threads = cli::take_parsed(&mut args, "--threads")
        .map_or_else(cli::default_threads, NonZeroUsize::get);
    let socket = cli::take_value(&mut args, "--socket");
    let cache_dir = cli::take_value(&mut args, "--cache-dir");
    let cache_max =
        cli::take_parsed(&mut args, "--cache-max").unwrap_or(bench::server::DEFAULT_CACHE_MAX);
    let no_cache = cli::take_flag(&mut args, "--no-cache");
    cli::finish(args, false);

    let cache = if no_cache {
        ResultCache::disabled()
    } else if let Some(dir) = cache_dir {
        ResultCache::on_disk(std::path::Path::new(&dir), cache_max).unwrap_or_else(|e| {
            eprintln!("stashd: cannot open cache dir {dir}: {e}");
            std::process::exit(1);
        })
    } else {
        ResultCache::in_memory()
    };

    let server = Arc::new(Mutex::new(Server::new(threads, cache)));
    match socket {
        Some(path) => serve_socket(&server, &path),
        None => serve_stdio(&server),
    }
}

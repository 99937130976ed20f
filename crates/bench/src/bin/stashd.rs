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
//! together and share the simulation job pool.
//!
//! A malformed or failing request produces an `error` event; the
//! process only exits on `shutdown` or end-of-input.
//!
//! Flags:
//!
//! ```text
//! --socket PATH   serve a Unix-domain socket instead of stdio
//! --cache-dir D   persist the result cache under D (default: memory only)
//! --cache-max N   bound the disk cache to N entries (default 512)
//! --no-cache      disable the result cache entirely
//! --threads N     simulation pool width (also STASH_THREADS)
//! ```

use std::io::{BufRead, BufReader, Write};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use bench::cli;
use bench::json;
use bench::server::{parse_request, Request, ResultCache, Server, CODE_VERSION};

fn usage() -> ! {
    eprintln!(
        "usage: stashd [--socket PATH] [--cache-dir DIR] [--cache-max N] [--no-cache] \
         [--threads N]"
    );
    std::process::exit(2);
}

/// A flag taking a value, in `--flag V` or `--flag=V` spelling.
fn value_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            usage();
        }
        let v = args.remove(i + 1);
        args.remove(i);
        return Some(v);
    }
    let prefix = format!("{flag}=");
    if let Some(i) = args.iter().position(|a| a.starts_with(&prefix)) {
        let v = args.remove(i)[prefix.len()..].to_string();
        return Some(v);
    }
    None
}

fn bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

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
    Bad(u64, String),
}

fn parse_line(line: &str) -> Parsed {
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return Parsed::Bad(0, format!("request is not valid JSON: {e}")),
    };
    let id = v.get_u64("id").unwrap_or(0);
    match v.get_str("cmd") {
        Some("stats") => Parsed::Stats,
        Some("shutdown") => Parsed::Shutdown,
        _ => match parse_request(&v) {
            Ok(req) => Parsed::Compute(id, req),
            Err(e) => Parsed::Bad(id, e),
        },
    }
}

/// Serves one connection's line stream until EOF or `shutdown`.
/// Returns true when a `shutdown` command was seen.
fn serve_lines(
    server: &Mutex<Server>,
    lines: &mpsc::Receiver<String>,
    out: &mut dyn Write,
) -> bool {
    let mut emit = |line: &str| {
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    loop {
        // Block on the first request, then drain whatever queued up
        // behind it: the whole group becomes one pooled batch.
        let Ok(first) = lines.recv() else {
            return false;
        };
        let mut raw = vec![first];
        while let Ok(next) = lines.try_recv() {
            raw.push(next);
        }
        let mut batch: Vec<(u64, Request)> = Vec::new();
        for line in &raw {
            if line.trim().is_empty() {
                continue;
            }
            match parse_line(line) {
                Parsed::Compute(id, req) => batch.push((id, req)),
                Parsed::Stats => {
                    let line = server.lock().expect("server lock").stats_event();
                    emit(&line);
                }
                Parsed::Shutdown => {
                    if !batch.is_empty() {
                        server
                            .lock()
                            .expect("server lock")
                            .handle_batch(&batch, &mut emit);
                    }
                    emit("{\"event\":\"bye\"}");
                    return true;
                }
                Parsed::Bad(id, e) => emit(&format!(
                    "{{\"event\":\"error\",\"id\":{id},\"cmd\":\"?\",\"error\":\"{}\"}}",
                    cli::json_escape(&e),
                )),
            }
        }
        if !batch.is_empty() {
            server
                .lock()
                .expect("server lock")
                .handle_batch(&batch, &mut emit);
        }
    }
}

/// Pumps a reader's lines into a channel from a dedicated thread, so
/// the serving loop can batch what queues up between turns.
fn line_pump<R: std::io::Read + Send + 'static>(reader: R) -> mpsc::Receiver<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(reader).lines() {
            let Ok(line) = line else { break };
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
    let args: Vec<String> = std::env::args().collect();
    let threads = cli::thread_count(&args);
    let mut args = args;
    cli::strip_common_flags(&mut args);
    let socket = value_flag(&mut args, "--socket");
    let cache_dir = value_flag(&mut args, "--cache-dir");
    let cache_max = value_flag(&mut args, "--cache-max")
        .map(|s| {
            s.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("--cache-max must be an unsigned integer, got {s:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(bench::server::DEFAULT_CACHE_MAX);
    let no_cache = bool_flag(&mut args, "--no-cache");
    if args.len() > 1 {
        usage();
    }

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

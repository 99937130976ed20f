//! Cache-correctness contract of the daemon core (`bench::server`):
//!
//! * a hit returns **byte-identical** payload to a fresh computation,
//!   across the in-memory layer, the disk layer, and a daemon restart;
//! * changing any key component — workload, configuration list, fault
//!   seed, inline trace text, code version — misses;
//! * a corrupted disk entry is detected (CRC / key verification from
//!   the `sim::snapshot` container), dropped, and recomputed — damage
//!   is **never served**;
//! * an entry an earlier payload generation stored (the same request
//!   under the previous `CODE_VERSION`) is never served either;
//! * a bad request inside a batch yields an `error` event and leaves
//!   the rest of the batch answered.

use bench::chaos::Seeds;
use bench::json;
use bench::server::{key_hex, parse_request, Request, ResultCache, Server};
use gpu::config::MemConfigKind;

/// A small two-kernel trace exercising stash reuse — cheap to simulate
/// but a real end-to-end request.
const TRACE: &str = "array grid elems=256 object=4\n\
                     kernel\nblock\ntask grid 0 256 rw local\n\
                     kernel\nblock\ntask grid 0 256 r local\n";

fn trace_request(kinds: Vec<MemConfigKind>) -> Request {
    Request::RunTrace {
        trace: TRACE.to_string(),
        kinds,
    }
}

/// Runs one request through `handle_batch` and returns
/// `(cached, payload)` from its result event.
fn ask(server: &mut Server, req: &Request) -> (bool, String) {
    let mut lines = Vec::new();
    server.handle_batch(&[(7, req.clone())], &mut |l: &str| {
        lines.push(l.to_string())
    });
    let result = lines
        .iter()
        .map(|l| json::parse(l).expect("protocol lines are valid JSON"))
        .find(|v| v.get_str("event") == Some("result"))
        .expect("one result event");
    (
        result.get("cached") == Some(&json::Value::Bool(true)),
        result.get_str("payload").expect("payload").to_string(),
    )
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stash_server_cache_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn hit_is_byte_identical_to_fresh_computation() {
    let dir = temp_dir("identity");
    let mut server = Server::new(2, ResultCache::on_disk(&dir, 64).unwrap());
    let req = trace_request(vec![MemConfigKind::Scratch, MemConfigKind::Stash]);

    let (cached_a, cold) = ask(&mut server, &req);
    assert!(!cached_a, "first answer must be computed");
    let (cached_b, warm) = ask(&mut server, &req);
    assert!(cached_b, "second answer must hit");
    assert_eq!(cold, warm, "hit must be byte-identical to computation");

    // A fresh server over the same directory — a daemon restart — hits
    // the disk layer with the same bytes.
    let mut restarted = Server::new(2, ResultCache::on_disk(&dir, 64).unwrap());
    let (cached_c, persisted) = ask(&mut restarted, &req);
    assert!(cached_c, "restart must hit the disk layer");
    assert_eq!(cold, persisted);

    // Clearing the cache forces recomputation, pinning that the cached
    // bytes equalled what computation produces.
    std::fs::remove_dir_all(&dir).unwrap();
    let mut cleared = Server::new(2, ResultCache::on_disk(&dir, 64).unwrap());
    let (cached_d, recomputed) = ask(&mut cleared, &req);
    assert!(!cached_d);
    assert_eq!(cold, recomputed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_key_component_changes_the_address() {
    let mut server = Server::new(1, ResultCache::disabled());
    let base = server
        .request_key(&trace_request(vec![MemConfigKind::Stash]))
        .unwrap();

    // Configuration list.
    let other_kind = server
        .request_key(&trace_request(vec![MemConfigKind::Cache]))
        .unwrap();
    assert_ne!(base, other_kind);

    // Trace (program) content.
    let other_trace = server
        .request_key(&Request::RunTrace {
            trace: TRACE.replace("task grid 0 256 rw", "task grid 0 128 rw"),
            kinds: vec![MemConfigKind::Stash],
        })
        .unwrap();
    assert_ne!(base, other_trace);

    // Workload identity (advise) and fault seed (chaos).
    let advise_a = server
        .request_key(&Request::Advise {
            workload: "reuse".to_string(),
        })
        .unwrap();
    let advise_b = server
        .request_key(&Request::Advise {
            workload: "implicit".to_string(),
        })
        .unwrap();
    assert_ne!(advise_a, advise_b);
    let chaos = |seed, count| Request::Chaos {
        workload: "implicit".to_string(),
        seeds: Seeds::new(seed, count).unwrap(),
    };
    let chaos_a = server.request_key(&chaos(1, 2)).unwrap();
    assert_ne!(chaos_a, server.request_key(&chaos(9, 2)).unwrap());
    assert_ne!(chaos_a, server.request_key(&chaos(1, 4)).unwrap());

    // Code version: the same request under a different build string.
    let req = trace_request(vec![MemConfigKind::Stash]);
    let v_now = server.request_key(&req).unwrap();
    let v_next = server
        .request_key_versioned("stash-repro/9.9.9/proto2", &req)
        .unwrap();
    assert_ne!(v_now, v_next, "a code-version bump must miss");
}

#[test]
fn previous_generation_advise_entry_is_recomputed_not_served() {
    // The `proto1` advise payload carried `est_ps` and `agreement`
    // fields; its key differs from today's only in the code version.
    let dir = temp_dir("proto1");
    let req = Request::Advise {
        workload: "reuse".to_string(),
    };
    let proto1 = concat!("stash-repro/", env!("CARGO_PKG_VERSION"), "/proto1");
    {
        let mut server = Server::new(1, ResultCache::disabled());
        let stale_key = server.request_key_versioned(proto1, &req).unwrap();
        let mut cache = ResultCache::on_disk(&dir, 64).unwrap();
        cache.store(
            &stale_key,
            "workload reuse\nconfig Stash est_ps 1 measured_ps 2\n\
             recommended Stash measured_best Stash agreement ok\n",
        );
    }

    let mut server = Server::new(2, ResultCache::on_disk(&dir, 64).unwrap());
    let (cached, payload) = ask(&mut server, &req);
    assert!(!cached, "a previous generation's entry must not be served");
    let (_, fresh) = ask(&mut Server::new(2, ResultCache::disabled()), &req);
    assert_eq!(payload, fresh, "the answer is a recomputation");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entry_is_detected_and_recomputed_never_served() {
    let dir = temp_dir("corrupt");
    let req = trace_request(vec![MemConfigKind::Stash]);
    let key;
    let cold;
    {
        let mut server = Server::new(1, ResultCache::on_disk(&dir, 64).unwrap());
        key = server.request_key(&req).unwrap();
        cold = ask(&mut server, &req).1;
    }

    // Flip one payload byte in the on-disk entry.
    let path = dir.join(format!("{}.rc", key_hex(&key)));
    let mut bytes = std::fs::read(&path).expect("entry written");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let mut server = Server::new(1, ResultCache::on_disk(&dir, 64).unwrap());
    let (cached, recovered) = ask(&mut server, &req);
    assert!(!cached, "a corrupt entry must read as a miss");
    assert_eq!(cold, recovered, "recomputation must replace the damage");
    assert_eq!(
        server.cache().stats.corrupt_dropped,
        1,
        "the drop must be counted"
    );

    // The rewritten entry validates again.
    let (cached_after, healed) = ask(&mut server, &req);
    assert!(cached_after);
    assert_eq!(cold, healed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_is_detected_and_recomputed() {
    let dir = temp_dir("torn");
    let req = trace_request(vec![MemConfigKind::Scratch]);
    let key;
    let cold;
    {
        let mut server = Server::new(1, ResultCache::on_disk(&dir, 64).unwrap());
        key = server.request_key(&req).unwrap();
        cold = ask(&mut server, &req).1;
    }
    let path = dir.join(format!("{}.rc", key_hex(&key)));
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let mut server = Server::new(1, ResultCache::on_disk(&dir, 64).unwrap());
    let (cached, recovered) = ask(&mut server, &req);
    assert!(!cached);
    assert_eq!(cold, recovered);
    assert_eq!(server.cache().stats.corrupt_dropped, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_request_in_a_batch_errors_without_sinking_the_rest() {
    let mut server = Server::new(2, ResultCache::in_memory());
    let good = trace_request(vec![MemConfigKind::Stash]);
    let bad = Request::RunTrace {
        trace: "array oops".to_string(), // malformed trace text
        kinds: vec![MemConfigKind::Stash],
    };
    let mut lines = Vec::new();
    server.handle_batch(&[(1, bad), (2, good.clone())], &mut |l: &str| {
        lines.push(l.to_string())
    });
    let events: Vec<_> = lines
        .iter()
        .map(|l| json::parse(l).expect("valid JSON"))
        .collect();
    let error = events
        .iter()
        .find(|v| v.get_str("event") == Some("error"))
        .expect("bad request errors");
    assert_eq!(error.get_u64("id"), Some(1));
    let result = events
        .iter()
        .find(|v| v.get_str("event") == Some("result"))
        .expect("good request still answers");
    assert_eq!(result.get_u64("id"), Some(2));

    // And the good answer matches a standalone computation.
    let mut fresh = Server::new(2, ResultCache::in_memory());
    let (_, standalone) = ask(&mut fresh, &good);
    assert_eq!(result.get_str("payload"), Some(standalone.as_str()));
}

#[test]
fn unknown_names_error_at_parse_without_exiting() {
    let v = json::parse(r#"{"id":3,"cmd":"advise","workload":"not_a_workload"}"#).unwrap();
    assert!(parse_request(&v).unwrap_err().contains("unknown workload"));
    let v = json::parse(r#"{"id":3,"cmd":"run-trace","trace":"x","configs":["Nope"]}"#).unwrap();
    assert!(parse_request(&v)
        .unwrap_err()
        .contains("unknown configuration"));
}

//! End-to-end server tests over a tiny trained policy: bit-identical
//! responses for any worker count, pure store hits on repeats (raw-bytes
//! and canonical tiers), in-order stdio sessions, lockstep socket
//! clients, the shared job queue, and every admission-control rejection
//! path.

use posetrl::{train, ActionSet, TrainedModel, TrainerConfig};
use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_serve::protocol::{parse_response, ErrorKind, OkResponse, Request, Response};
use posetrl_serve::server::{run_stdio, Server};
use posetrl_serve::ServeConfig;
use posetrl_target::TargetArch;
use posetrl_workloads::{generate, Benchmark, ProgramKind, ProgramSpec, SizeClass, Suite};
use std::sync::{Arc, OnceLock};

fn bench(name: &str, kind: ProgramKind, seed: u64) -> Benchmark {
    let spec = ProgramSpec {
        name: name.to_string(),
        kind,
        size: SizeClass::Small,
        seed,
    };
    Benchmark {
        name: name.to_string(),
        suite: Suite::Training,
        module: generate(&spec),
        spec,
    }
}

/// One tiny policy shared by every test in this file (training even a
/// toy agent costs seconds; caching it keeps the suite fast).
fn model() -> Arc<TrainedModel> {
    static MODEL: OnceLock<Arc<TrainedModel>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let mut cfg = TrainerConfig::quick();
        cfg.total_steps = 60;
        cfg.env.episode_len = 3;
        cfg.agent.hidden = vec![16];
        cfg.agent.eps_decay_steps = 40;
        cfg.agent.learn_start = 12;
        cfg.agent.batch_size = 8;
        cfg.max_programs = Some(2);
        let suite = vec![
            bench("e2e_a", ProgramKind::NumericKernel, 11),
            bench("e2e_b", ProgramKind::BitManip, 12),
        ];
        Arc::new(train(&cfg, ActionSet::odg(), &suite))
    }))
}

/// Module texts used as request payloads (distinct from training inputs).
fn corpus() -> Vec<String> {
    [
        (ProgramKind::BranchyInteger, 21),
        (ProgramKind::Streaming, 22),
        (ProgramKind::CallHeavy, 23),
    ]
    .into_iter()
    .map(|(kind, seed)| print_module(&bench("req", kind, seed).module))
    .collect()
}

fn cfg(workers: usize, queue_depth: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_depth,
        max_steps: 3,
        ..ServeConfig::default()
    }
}

fn request(id: &str, module: &str, max_steps: Option<u64>) -> String {
    request_for(id, module, TargetArch::X86_64, max_steps)
}

fn request_for(id: &str, module: &str, arch: TargetArch, max_steps: Option<u64>) -> String {
    Request {
        id: id.to_string(),
        module: module.to_string(),
        arch,
        max_steps,
    }
    .to_json()
}

fn ok(resp: Response) -> OkResponse {
    match resp {
        Response::Ok(ok) => ok,
        Response::Err(e) => panic!("expected ok response, got {:?}: {}", e.id, e.error),
    }
}

#[test]
fn responses_are_bit_identical_for_any_worker_count() {
    let model = model();
    let corpus = corpus();
    let lines: Vec<String> = corpus
        .iter()
        .enumerate()
        .map(|(i, m)| request(&format!("det-{i}"), m, None))
        .collect();
    type Fingerprint = (String, String, Vec<u64>, u64, u64);
    let mut baseline: Option<Vec<Fingerprint>> = None;
    for workers in [1usize, 2, 8] {
        // incremental per-function analysis must be exactly as invisible
        // as the worker count
        for incremental in [false, true] {
            let mgr = incremental
                .then(posetrl_analyze::IncrementalAnalysisManager::new)
                .map(Arc::new);
            let server = Server::with_incremental(Arc::clone(&model), cfg(workers, 8), None, mgr);
            // submit the whole stream first so multi-worker runs actually batch
            let pending: Vec<_> = lines.iter().map(|l| server.submit(l)).collect();
            let got: Vec<_> = pending
                .into_iter()
                .map(|p| {
                    let r = ok(p.wait());
                    (r.id, r.module, r.actions, r.size_before, r.size_after)
                })
                .collect();
            match &baseline {
                None => baseline = Some(got),
                Some(expect) => assert_eq!(
                    expect, &got,
                    "workers={workers} incremental={incremental} changed a response — \
                     the bit-identical contract is broken"
                ),
            }
        }
    }
}

#[test]
fn repeats_are_pure_store_hits() {
    let server = Server::new(model(), cfg(2, 8), None);
    let module = &corpus()[0];
    let first = ok(server.handle(&request("r1", module, None)));
    assert!(!first.cached, "first sight must be a full rollout");
    let second = ok(server.handle(&request("r2", module, None)));
    assert!(second.cached, "repeat must come from the response store");
    assert_eq!(first.module, second.module);
    assert_eq!(first.actions, second.actions);
    assert_eq!(first.size_after, second.size_after);
    let stats = server.stats();
    assert_eq!(stats.store_hits, 1);
    assert_eq!(stats.store_misses, 1);
    assert!((stats.store_hit_rate() - 0.5).abs() < 1e-9);
    // a different step budget is a different store key
    let third = ok(server.handle(&request("r3", module, Some(1))));
    assert!(!third.cached);
}

#[test]
fn stdio_session_answers_in_request_order() {
    let server = Server::new(model(), cfg(2, 4), None);
    let corpus = corpus();
    let mut input = String::new();
    for (i, m) in corpus.iter().enumerate() {
        input.push_str(&request(&format!("s-{i}"), m, None));
        input.push('\n');
    }
    input.push('\n'); // blank lines are skipped, not answered
    input.push_str("not json at all\n");
    let mut out = Vec::new();
    let summary = run_stdio(&server, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.requests, corpus.len() as u64 + 1);
    assert_eq!(summary.ok, corpus.len() as u64);
    assert_eq!(summary.errors, 1);
    let lines: Vec<Response> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| posetrl_serve::protocol::parse_response(l).expect("server output must parse"))
        .collect();
    assert_eq!(lines.len(), corpus.len() + 1);
    for (i, resp) in lines[..corpus.len()].iter().enumerate() {
        let r = match resp {
            Response::Ok(r) => r,
            Response::Err(e) => panic!("line {i}: {}", e.error),
        };
        assert_eq!(r.id, format!("s-{i}"), "responses must keep request order");
    }
    match &lines[corpus.len()] {
        Response::Err(e) => assert_eq!(e.error.kind, ErrorKind::Parse),
        Response::Ok(_) => panic!("malformed line must get an error response"),
    }
}

#[test]
fn admission_rejections_are_structured() {
    let mut small = cfg(1, 4);
    small.max_module_bytes = 64;
    let server = Server::new(model(), small, None);

    // over the byte budget
    let resp = server.handle(&request("big", &"x".repeat(65), None));
    match resp {
        Response::Err(e) => {
            assert_eq!(e.id.as_deref(), Some("big"));
            assert_eq!(e.error.kind, ErrorKind::ModuleTooLarge);
        }
        Response::Ok(_) => panic!("oversized module must be rejected"),
    }

    // within budget but not IR
    let resp = server.handle(&request("junk", "this is not ir", None));
    match resp {
        Response::Err(e) => assert_eq!(e.error.kind, ErrorKind::BadModule),
        Response::Ok(_) => panic!("unparseable module must be rejected"),
    }

    // malformed request line: no id to echo
    let resp = server.handle("{\"oops\"");
    match resp {
        Response::Err(e) => {
            assert_eq!(e.id, None);
            assert_eq!(e.error.kind, ErrorKind::Parse);
        }
        Response::Ok(_) => panic!("malformed line must be rejected"),
    }

    let stats = server.stats();
    assert_eq!(stats.errors, 3);
    assert_eq!(stats.ok, 0);
}

#[test]
fn full_queue_answers_overloaded_without_blocking() {
    let model = model();
    let server = Server::new(Arc::clone(&model), cfg(1, 1), None);
    let module = &corpus()[1];
    // distinct step budgets are distinct store keys, so none of these can
    // resolve as a store hit; with one worker and a depth-1 queue the
    // burst must overflow admission control
    let pending: Vec<_> = (0u64..24)
        .map(|i| server.submit(&request(&format!("burst-{i}"), module, Some(1 + i % 3))))
        .collect();
    let responses: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
    let overloaded = responses
        .iter()
        .filter(|r| matches!(r, Response::Err(e) if e.error.kind == ErrorKind::Overloaded))
        .count();
    let okay = responses.iter().filter(|r| r.is_ok()).count();
    assert!(okay >= 1, "the admitted requests must still succeed");
    assert!(
        overloaded >= 1,
        "a 24-request burst against a depth-1 queue must trip admission control"
    );
    for r in &responses {
        if let Response::Err(e) = r {
            assert_eq!(
                e.error.kind,
                ErrorKind::Overloaded,
                "only admission control may reject this stream: {}",
                e.error
            );
        }
    }
    assert_eq!(server.stats().overloads, overloaded as u64);
    assert_eq!(okay + overloaded, responses.len());
}

/// The response as JSON with its timing zeroed: what must not vary
/// between a hit and the result it replays.
fn timeless(r: &OkResponse) -> String {
    Response::Ok(OkResponse {
        wall_us: 0,
        ..r.clone()
    })
    .to_json()
}

#[test]
fn raw_hit_is_byte_identical_to_canonical_hit_and_miss() {
    let server = Server::new(model(), cfg(2, 8), None);
    let module = &corpus()[0];
    let line = request("same", module, None);
    let miss = ok(server.handle(&line));
    let canonical = ok(server.handle(&line));
    let stats = server.stats();
    assert_eq!(
        (stats.store_hits, stats.raw_hits),
        (1, 0),
        "second sight hashes"
    );
    let raw = ok(server.handle(&line));
    let stats = server.stats();
    assert_eq!(
        (stats.store_hits, stats.raw_hits),
        (2, 1),
        "third sight is raw"
    );
    assert_eq!(stats.store_misses, 1);
    assert!(canonical.cached && raw.cached);
    assert_eq!(timeless(&raw), timeless(&canonical));
    // the miss differs only in how it was served
    let as_hit = OkResponse {
        cached: true,
        batch: 0,
        ..miss
    };
    assert_eq!(timeless(&raw), timeless(&as_hit));
}

#[test]
fn reformatted_module_is_a_canonical_hit_not_a_raw_hit() {
    let server = Server::new(model(), cfg(2, 8), None);
    let module = corpus()[1].clone();
    let reformatted = format!(
        "{}\n; the same module, printed differently\n",
        module.trim_end()
    );
    assert_ne!(module, reformatted);
    assert_eq!(
        posetrl_ir::module_hash(&parse_module(&module).unwrap()),
        posetrl_ir::module_hash(&parse_module(&reformatted).unwrap()),
        "a comment must not change the structural hash"
    );
    let first = ok(server.handle(&request("a", &module, None)));
    ok(server.handle(&request("a", &module, None)));
    assert_eq!(server.stats().raw_hits, 0);
    let other = ok(server.handle(&request("a", &reformatted, None)));
    let stats = server.stats();
    assert!(
        other.cached,
        "equal module_hash must hit the canonical tier"
    );
    assert_eq!((stats.store_hits, stats.raw_hits), (2, 0));
    assert_eq!(other.module, first.module);
    // the canonical hit taught the raw tier the new bytes
    let again = ok(server.handle(&request("a", &reformatted, None)));
    assert_eq!(server.stats().raw_hits, 1);
    assert_eq!(timeless(&again), timeless(&other));
}

#[test]
fn raw_entry_of_an_evicted_result_falls_through_to_a_rollout() {
    let mut one = cfg(1, 8);
    one.store_capacity = 1;
    let server = Server::new(model(), one, None);
    let corpus = corpus();
    let (a, b) = (&corpus[0], &corpus[2]);
    let first = ok(server.handle(&request("a", a, None)));
    assert!(ok(server.handle(&request("a", a, None))).cached);
    // b's result evicts a's; the raw entry for a's bytes now points nowhere
    assert!(!ok(server.handle(&request("b", b, None))).cached);
    let replayed = ok(server.handle(&request("a", a, None)));
    let stats = server.stats();
    assert!(!replayed.cached, "an evicted result must be recomputed");
    assert_eq!(stats.raw_hits, 0);
    assert_eq!((stats.store_hits, stats.store_misses), (1, 3));
    assert_eq!(
        timeless(&OkResponse {
            batch: 0,
            ..replayed
        }),
        timeless(&OkResponse { batch: 0, ..first })
    );
}

#[test]
fn raw_tier_never_conflates_arch_or_steps() {
    let server = Server::new(model(), cfg(2, 8), None);
    let module = &corpus()[0];
    let keys = [
        (TargetArch::X86_64, None),
        (TargetArch::X86_64, Some(1)),
        (TargetArch::AArch64, None),
        (TargetArch::AArch64, Some(2)),
    ];
    let misses: Vec<OkResponse> = keys
        .iter()
        .map(|&(arch, steps)| ok(server.handle(&request_for("k", module, arch, steps))))
        .collect();
    assert!(misses.iter().all(|r| !r.cached), "every key is new");
    // canonical hits, then raw hits, each replaying its own key's result
    for round in 0..2 {
        for (&(arch, steps), miss) in keys.iter().zip(&misses) {
            let hit = ok(server.handle(&request_for("k", module, arch, steps)));
            assert!(hit.cached, "round {round}: {arch:?} {steps:?} must hit");
            assert_eq!(
                timeless(&hit),
                timeless(&OkResponse {
                    cached: true,
                    batch: 0,
                    ..miss.clone()
                })
            );
        }
    }
    let stats = server.stats();
    assert_eq!(stats.store_misses, keys.len() as u64);
    assert_eq!(stats.raw_hits, keys.len() as u64);
}

#[test]
fn repeated_bad_module_stays_bad_module() {
    let server = Server::new(model(), cfg(1, 4), None);
    let unparseable = "this is not ir";
    // parses, but the block has no terminator
    let unverifiable =
        "module \"m\"\nfn @f() -> i64 internal {\nbb0:\n  %x = add i64 1:i64, 2:i64\n}\n";
    assert!(parse_module(unverifiable).is_ok());
    for text in [unparseable, unverifiable] {
        for _ in 0..3 {
            match server.handle(&request("bad", text, None)) {
                Response::Err(e) => assert_eq!(e.error.kind, ErrorKind::BadModule),
                Response::Ok(_) => panic!("a bad module must never be served"),
            }
        }
    }
    let stats = server.stats();
    assert_eq!((stats.store_hits, stats.store_misses), (0, 0));
}

#[test]
fn misses_on_one_shard_share_the_whole_queue() {
    // two jobs on one shard: per-worker queues of depth 1 would race the
    // worker for the second slot; the shared queue holds both
    let server = Server::new(model(), cfg(2, 1), None);
    let module = &corpus()[1];
    let pending: Vec<_> = [1, 2]
        .iter()
        .map(|&steps| server.submit(&request(&format!("q-{steps}"), module, Some(steps))))
        .collect();
    let responses: Vec<OkResponse> = pending.into_iter().map(|p| ok(p.wait())).collect();
    assert_eq!(
        responses[0].shard, responses[1].shard,
        "same module, same shard"
    );
    assert!(responses.iter().all(|r| !r.cached));
    assert_eq!(server.stats().overloads, 0);
}

#[cfg(unix)]
#[test]
fn socket_client_can_wait_for_each_answer() {
    use posetrl_serve::server::run_unix_socket;
    use std::io::{BufRead, BufReader, Write};
    use std::net::Shutdown;
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    let server = Server::new(model(), cfg(2, 4), None);
    let corpus = corpus();
    let path = std::env::temp_dir().join(format!(
        "posetrl-serve-lockstep-{}.sock",
        std::process::id()
    ));
    let answered = std::thread::scope(|scope| {
        let listener = scope.spawn(|| run_unix_socket(&server, &path, Some(1)));
        let t = Instant::now();
        let stream = loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(e) if t.elapsed() > Duration::from_secs(30) => panic!("no listener: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        // a server that holds answers back until more input arrives makes
        // this read time out instead of hanging the test
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let exchange = || -> std::io::Result<Vec<String>> {
            let mut reader = BufReader::new(&stream);
            let mut ids = Vec::new();
            for (i, m) in corpus.iter().enumerate() {
                (&stream)
                    .write_all(format!("{}\n", request(&format!("l-{i}"), m, None)).as_bytes())?;
                let mut line = String::new();
                reader.read_line(&mut line)?;
                ids.push(ok(parse_response(line.trim_end()).expect("response parses")).id);
            }
            Ok(ids)
        };
        let answered = exchange();
        let _ = stream.shutdown(Shutdown::Both);
        listener.join().unwrap().unwrap();
        answered
    });
    let _ = std::fs::remove_file(&path);
    let ids = answered.expect("each answer must arrive before the next request is sent");
    let expect: Vec<String> = (0..corpus.len()).map(|i| format!("l-{i}")).collect();
    assert_eq!(ids, expect);
}

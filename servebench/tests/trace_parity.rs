//! The traced run must not change what the engine generates, and the
//! correctness checks must catch a wrong stream. Runs every workload at
//! smoke scale (tiny model, short prompts) so it is fast in debug builds.

use servebench::analysis::{analyze, Analysis};
use servebench::clock::WallClock;
use servebench::closed_loop::{run_phase, Bench, Limit};
use servebench::config::{EngineSpec, Scale, WorkloadSpec, WORKLOADS};
use servebench::probe::Probe;

/// Serve `clients` warm-up requests of `workload`, then `clients` timed
/// ones.
fn run(workload: &WorkloadSpec, seed: u64, tracing: bool, pins: &[(usize, u64)]) -> Analysis {
    let engine = EngineSpec::at(Scale::Smoke);
    let trace = workload.trace(engine.model.vocab_size, seed);
    let probe = Probe::new(WallClock::start(), tracing);
    let mut bench =
        Bench::setup(&engine, workload, workload.document_of(&trace), &probe).expect("setup");
    let limit = Limit {
        warmup: true,
        requests: workload.clients,
    };
    let phase = run_phase(&mut bench, workload.clients, &trace, limit);
    assert_eq!(phase.spans.is_empty(), !tracing, "{}", workload.name);
    // Every selector span of the phase is attributed to one of its requests.
    for span in &phase.spans {
        assert!(
            phase.session_requests.contains_key(&span.session),
            "{}",
            workload.name
        );
    }
    analyze(&phase, workload, engine.model.vocab_size, pins)
}

#[test]
fn traced_streams_equal_untraced_streams_for_every_workload() {
    for name in WORKLOADS {
        let workload = WorkloadSpec::named(name, Scale::Smoke).expect("known workload");
        let plain = run(&workload, 7, false, &[]);
        let traced = run(&workload, 7, true, &[]);
        assert!(plain.failures.is_empty(), "{name}: {:?}", plain.failures);
        assert!(traced.failures.is_empty(), "{name}: {:?}", traced.failures);
        // Every stream is checked; latencies come from the timed requests.
        assert_eq!(plain.digests.len(), 2 * workload.clients, "{name}");
        assert_eq!(plain.ttfts.len(), workload.clients, "{name}");
        assert_eq!(plain.digests, traced.digests, "{name}");
        // Traced runs add the span-derived per-layer times.
        assert!(traced.get("core.plan_us_p50").is_some(), "{name}");
        assert!(plain.get("core.plan_us_p50").is_none(), "{name}");
    }
}

#[test]
fn workloads_stay_on_their_side() {
    let chat = run(
        &WorkloadSpec::named("chat_short", Scale::Smoke).unwrap(),
        3,
        false,
        &[],
    );
    assert_eq!(chat.properties.plan_selective_frac, 0.0);
    let doc = run(
        &WorkloadSpec::named("doc_qa", Scale::Smoke).unwrap(),
        3,
        false,
        &[],
    );
    assert_eq!(doc.properties.plan_selective_frac, 1.0);
    assert!(
        doc.properties.prefix_hit_frac >= 0.9,
        "{:?}",
        doc.properties
    );
}

#[test]
fn a_stream_that_differs_from_its_pin_is_a_failure() {
    let workload = WorkloadSpec::named("chat_short", Scale::Smoke).unwrap();
    let good = run(&workload, 5, false, &[]);
    let (index, digest) = good.digests[0];
    let pinned = run(&workload, 5, false, &[(index, digest)]);
    assert!(pinned.failures.is_empty(), "{:?}", pinned.failures);
    let wrong = run(&workload, 5, false, &[(index, digest ^ 1)]);
    assert_eq!(wrong.failures.len(), 1, "{:?}", wrong.failures);
    assert!(wrong.failures[0].contains("pinned"));
    let fail_frac = wrong.get("fail_frac").unwrap();
    assert!(fail_frac.value > 0.0);
}

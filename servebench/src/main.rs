//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Serves the workload's closed loop on freshly built engines: three
//! repeats of the same requests (`--trace 0`; together about `--seconds` of
//! work on the reference host), or one untraced and one traced run
//! (`--trace 1`). Prints two JSON lines on stdout: a report with every
//! metric (units, sample counts), property shares, stream digests and run
//! metadata; then, last, the result object `{correct, attempted, failed,
//! metrics}` holding the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced run (`--trace 1`). `--pin <n>` instead serves the
//! first `n` requests and prints their stream digests as a `pins.rs` entry.

use std::process::ExitCode;

use servebench::analysis::{analyze, median, streams_digest, Analysis, Metric};
use servebench::clock::{secs, WallClock};
use servebench::closed_loop::{median_phase, run_phase, Bench, Limit};
use servebench::config::{EngineSpec, Scale, WorkloadSpec, WORKLOADS};
use servebench::pins::pins;
use servebench::probe::Probe;

/// End-to-end metrics of the result line (`BENCHMARK.json` `end_to_end`).
const END_TO_END: &[&str] = &["gen_tok_s", "tbt_p50_ms", "peak_rss_mib", "setup_s"];

/// Per-layer metrics of the result line (`BENCHMARK.json` `per_layer`).
const PER_LAYER: &[&str] = &[
    "core.plan_us_p50",
    "core.plan_calls",
    "core.scored_per_plan",
    "core.plan_selective_frac",
    "core.kmeans_ms_p50",
    "core.kmeans_calls",
    "core.append_us_p50",
    "core.chunk_observe_us_p50",
    "sched.decode_ms_per_token",
    "model.self_ms_per_token",
    "sched.prefill_ms_per_token",
    "sched.decode_batch_mean",
    "sched.ticks",
    "sched.queue_wait_ms_p50",
    "sched.decode_tick_frac",
    "sched.decode_tick_wall_frac",
    "sched.modeled_s",
    "sched.wall_s",
    "kvcache.hit_rate",
    "kvcache.recalled_kib_per_token",
    "kvcache.prefix_hit_frac",
    "kvcache.prefix_evicted_nodes",
    "trace_overhead_frac",
];

/// Repeats of a `--trace 0` run, each on its own timed set-up. Odd, so
/// every median is one repeat's value.
const REPEATS: usize = 3;

const USAGE: &str = "usage: servebench --workload <chat_short|doc_qa> \
                     --seed <n> --seconds <s> --trace <0|1> [--pin <n>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut pin) = (None, None, None, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--pin" => pin = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        pin,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One worker per core, whatever the caller's environment says.
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    let workers = rayon::current_num_threads();
    let engine = EngineSpec::at(Scale::Full);
    let workload = WorkloadSpec::named(&args.workload, Scale::Full).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {WORKLOADS:?})",
            args.workload
        )
    })?;
    let vocab = engine.model.vocab_size;
    let trace = workload.trace(vocab, args.seed);
    let document = workload.document_of(&trace);
    let clock = WallClock::start();
    let pinned = pins(workload.name, args.seed);

    if let Some(n) = args.pin {
        let probe = Probe::new(clock, false);
        let mut bench = Bench::setup(&engine, &workload, document, &probe)?;
        let phase = run_phase(
            &mut bench,
            workload.clients,
            &trace,
            Limit {
                warmup: false,
                requests: n,
            },
        );
        let analysis = analyze(&phase, &workload, vocab, &[]);
        if !analysis.failures.is_empty() {
            return Err(analysis.failures.join("; "));
        }
        let entries: Vec<String> = analysis
            .digests
            .iter()
            .map(|(i, d)| format!("({i}, 0x{d:016x})"))
            .collect();
        println!(
            "    (\"{}\", {}, &[{}]),",
            workload.name,
            args.seed,
            entries.join(", ")
        );
        return Ok(());
    }

    // A `--trace 0` run serves the same requests REPEATS times, each time
    // on a fresh set-up (engine build, plus doc_qa's one-time document
    // prefill) that is timed for `setup_s`. Each engine is dropped before the
    // next is built, so peak memory holds one. The metrics come from the
    // median of the repeats (`median_phase`). A traced run serves them once
    // untraced and once traced, each on a fresh engine.
    let repeats = if args.trace { 1 } else { REPEATS };
    let limit = Limit {
        warmup: true,
        requests: workload.repeat_requests(args.seconds, REPEATS),
    };
    let probe = Probe::new(clock, false);
    let mut setup_times = Vec::new();
    let mut phases = Vec::new();
    let host_before = HostSample::now();
    for _ in 0..repeats {
        let t0 = clock.now_ns();
        let mut bench = Bench::setup(&engine, &workload, document, &probe)?;
        setup_times.push(secs(clock.now_ns() - t0));
        phases.push(run_phase(&mut bench, workload.clients, &trace, limit));
    }
    let host = HostSample::now().since(&host_before);
    let setup_s = median(&setup_times);
    let mut failures = Vec::new();
    let mut attempted = 0;
    let analyses: Vec<Analysis> = phases
        .iter()
        .map(|phase| analyze(phase, &workload, vocab, pinned))
        .collect();
    for (phase, analysis) in phases.iter().zip(&analyses) {
        attempted += phase.attempted;
        failures.extend(analysis.failures.iter().cloned());
        failures.extend(digest_mismatches(&analyses[0], analysis, "repeated"));
    }
    let untraced = match median_phase(&phases) {
        Ok(phase) => analyze(&phase, &workload, vocab, pinned),
        Err(e) => {
            failures.push(e);
            analyses[0].clone()
        }
    };

    let mut traced_host = None;
    let traced = if args.trace {
        let probe = Probe::new(clock, true);
        let mut bench = Bench::setup(&engine, &workload, document, &probe)?;
        let host_before = HostSample::now();
        let phase = run_phase(&mut bench, workload.clients, &trace, limit);
        traced_host = Some(HostSample::now().since(&host_before));
        drop(bench);
        let traced = analyze(&phase, &workload, vocab, pinned);
        failures.extend(traced.failures.iter().cloned());
        failures.extend(digest_mismatches(&untraced, &traced, "traced"));
        attempted += phase.attempted;
        Some(traced)
    } else {
        None
    };

    let mut e2e = untraced.e2e.clone();
    // Failures of every repeat and of the traced run, over all attempts.
    for m in e2e.iter_mut().filter(|m| m.name == "fail_frac") {
        *m = Metric::new(
            "fail_frac",
            "frac",
            failures.len() as f64 / attempted.max(1) as f64,
            Some(attempted),
        );
    }
    e2e.push(Metric::new("setup_s", "s", setup_s, Some(repeats)));
    match peak_rss_mib() {
        Some(mib) => e2e.push(Metric::new("peak_rss_mib", "MiB", mib, None)),
        None => failures.push("VmHWM unavailable".to_string()),
    }
    let layer = match &traced {
        Some(traced) => {
            let mut layer = traced.layer.clone();
            let gen = |a: &Analysis| a.get("gen_tok_s").map_or(0.0, |m| m.value);
            let base = gen(&untraced);
            let overhead = if base > 0.0 {
                1.0 - gen(traced) / base
            } else {
                0.0
            };
            layer.push(Metric::new("trace_overhead_frac", "frac", overhead, None));
            layer
        }
        None => untraced.layer.clone(),
    };

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let pool = if args.trace { &layer } else { &e2e };
    let mut result = Vec::new();
    for &name in wanted {
        match pool.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => result.push(m.clone()),
            Some(m) => failures.push(format!("{name} is not finite ({})", m.value)),
            None => failures.push(format!("{name} not reportable (too few samples)")),
        }
    }

    let meta = Meta {
        host,
        traced_host,
        warmup: limit.warmup,
        repeats,
        requests: limit.requests,
        workload: &workload,
        engine: &engine,
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        workers,
    };
    println!(
        "{}",
        report_json(&meta, &e2e, &layer, &untraced, traced.as_ref(), &failures)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failures.is_empty(),
        attempted.max(1),
        failures.len(),
        metrics_json(&result, false)
    );
    Ok(())
}

/// Requests both runs completed must carry identical streams: `run` (the
/// `what` run) against `reference`.
fn digest_mismatches(reference: &Analysis, run: &Analysis, what: &str) -> Vec<String> {
    run.digests
        .iter()
        .filter_map(|&(i, d)| {
            let (_, u) = reference.digests.iter().find(|(j, _)| *j == i)?;
            (*u != d).then(|| format!("request {i}: {what} digest {d:016x} != first run {u:016x}"))
        })
        .collect()
}

/// `VmHWM` (peak resident set) of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU accounting of the whole machine (`/proc/stat` jiffies). Steal is
/// time a virtual CPU wanted to run but the hypervisor ran something else:
/// it inflates every wall-clock figure of the run, so each report states
/// how much there was.
#[derive(Debug, Clone, Copy, Default)]
struct HostSample {
    total: u64,
    steal: u64,
}

impl HostSample {
    fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let cpu: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        Self {
            total: cpu.iter().sum(),
            steal: cpu.get(7).copied().unwrap_or(0),
        }
    }

    fn steal_frac(&self) -> f64 {
        self.steal as f64 / self.total.max(1) as f64
    }

    fn since(&self, before: &Self) -> Self {
        Self {
            total: self.total.saturating_sub(before.total),
            steal: self.steal.saturating_sub(before.steal),
        }
    }
}

/// The commit under test, from the checkout's `.git/HEAD` (resolved through
/// a loose ref or `packed-refs`), or `unknown` outside a git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(format!(".git/{path}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => read(r).map(|c| c.trim().to_string()).or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == r).then(|| hash.to_string())
            })
        }),
        None => Some(head.to_string()),
    };
    resolved
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

struct Meta<'a> {
    host: HostSample,
    traced_host: Option<HostSample>,
    warmup: bool,
    repeats: usize,
    requests: usize,
    workload: &'a WorkloadSpec,
    engine: &'a EngineSpec,
    seed: u64,
    seconds: f64,
    nproc: usize,
    workers: usize,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = match (with_samples, m.samples) {
                (true, Some(n)) => format!(", \"samples\": {n}"),
                _ => String::new(),
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn strings_json(items: &[String]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", body.join(", "))
}

fn report_json(
    meta: &Meta<'_>,
    e2e: &[Metric],
    layer: &[Metric],
    untraced: &Analysis,
    traced: Option<&Analysis>,
    failures: &[String],
) -> String {
    let m = &meta.engine.model;
    let ckv = &meta.engine.clusterkv;
    let w = meta.workload;
    let digest = |a: &Analysis| {
        format!(
            "{{\"completed\": {}, \"streams\": \"{:016x}\"}}",
            a.digests.len(),
            streams_digest(&a.digests)
        )
    };
    let p = &untraced.properties;
    format!(
        concat!(
            "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, ",
            "\"meta\": {{\"nproc\": {}, \"workers\": {}, \"commit\": \"{}\", ",
            "\"model\": {{\"layers\": {}, \"heads\": {}, \"kv_heads\": {}, \"head_dim\": {}, ",
            "\"ffn\": {}, \"vocab\": {}, \"dense_layers\": {}, \"max_context\": {}, \"weight_seed\": {}}}, ",
            "\"clusterkv\": {{\"tokens_per_cluster\": {}, \"sink_tokens\": {}, \"budget\": {}, ",
            "\"cache_bytes\": {}, \"prefix_store_bytes\": {}}}, ",
            "\"clients\": {}, \"repeats\": {}, \"warmup_requests\": {}, \"requests\": {}, \"prompt_len\": [{}, {}], \"output_len\": [{}, {}], ",
            "\"document\": {}, \"host_steal_frac\": {}, \"traced_host_steal_frac\": {}}}, ",
            "\"properties\": {{\"core.plan_selective_frac\": {}, \"kvcache.prefix_hit_frac\": {}, ",
            "\"sched.decode_tick_frac\": {}}}, ",
            "\"digests\": {{\"untraced\": {}, \"traced\": {}}}, \"ttft_ms\": [{}], ",
            "\"end_to_end\": {}, \"per_layer\": {}, \"failures\": {}}}}}"
        ),
        w.name,
        meta.seed,
        num(meta.seconds),
        meta.nproc,
        meta.workers,
        commit(),
        m.num_layers,
        m.num_heads,
        m.num_kv_heads,
        m.head_dim,
        m.ffn_dim,
        m.vocab_size,
        m.dense_layers,
        m.max_context,
        meta.engine.weight_seed,
        ckv.tokens_per_cluster,
        ckv.sink_tokens,
        meta.engine.budget,
        m.selected_kv_bytes_per_step(meta.engine.cache_tokens),
        meta.engine.prefix_store.get(),
        w.clients,
        meta.repeats,
        if meta.warmup { w.clients } else { 0 },
        meta.requests,
        w.prompt_len.0,
        w.prompt_len.1,
        w.output_len.0,
        w.output_len.1,
        w.document,
        num(meta.host.steal_frac()),
        meta.traced_host.map_or("null".to_string(), |h| num(h.steal_frac())),
        num(p.plan_selective_frac),
        num(p.prefix_hit_frac),
        num(p.decode_tick_frac),
        digest(untraced),
        traced.map_or("null".to_string(), digest),
        untraced
            .ttfts
            .iter()
            .map(|&(i, t)| format!("[{i}, {}]", num(t)))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(e2e, true),
        metrics_json(layer, true),
        strings_json(failures),
    )
}

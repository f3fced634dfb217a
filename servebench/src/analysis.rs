//! From a phase's tick log, request records, counters and spans to named
//! metrics, stream digests and the output correctness verdict.

use clusterkv_faults::Fnv64;
use clusterkv_metrics::percentile;

use crate::clock::{ms, secs};
use crate::closed_loop::Phase;
use crate::config::WorkloadSpec;
use crate::probe::{Counter, Span, SpanKind};
use crate::ticklog::{tbt_samples, token_tick, TickRecord};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind a percentile or mean (`None` for plain counts).
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: Option<usize>) -> Self {
        Self {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Samples at least this many values must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `values`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn reportable_percentile(values: &[f64], p: f64) -> Option<f64> {
    let beyond = (values.len() as f64 * (1.0 - p / 100.0)).floor() as usize;
    (beyond >= MIN_BEYOND).then(|| percentile(values, p))
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// FNV-1a digest of one request's stream, keyed by its trace position.
pub fn stream_digest(index: usize, tokens: &[usize]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(index as u64);
    h.write_u64(tokens.len() as u64);
    for &t in tokens {
        h.write_u64(t as u64);
    }
    h.finish()
}

/// Digest over `(trace index, stream digest)` pairs in index order.
pub fn streams_digest(digests: &[(usize, u64)]) -> u64 {
    let mut h = Fnv64::new();
    for &(index, d) in digests {
        h.write_u64(index as u64);
        h.write_u64(d);
    }
    h.finish()
}

/// The share-of-work properties a workload was chosen for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Properties {
    /// Plans that ran cluster selection (context over budget) per plan.
    pub plan_selective_frac: f64,
    /// Prompt positions the prefix store served, per position looked up.
    pub prefix_hit_frac: f64,
    /// Share of the timed window's ticks that only decoded. A count, not a
    /// wall share: the closed loop makes the same ticks on every run, so a
    /// speed-up of one kind of tick cannot move it.
    pub decode_tick_frac: f64,
}

/// Everything derived from one phase.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// End-to-end metrics of the phase (set-up and memory are added by the
    /// caller, which owns those measurements).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics; times only when the phase was traced.
    pub layer: Vec<Metric>,
    /// `(trace index, digest)` of every completed stream, by index.
    pub digests: Vec<(usize, u64)>,
    /// `(trace index, TTFT ms)` of every completed request, by index.
    pub ttfts: Vec<(usize, f64)>,
    /// Property shares.
    pub properties: Properties,
    /// Every correctness failure, one line each (refusals, scheduler
    /// errors, malformed or mismatching streams, property violations).
    pub failures: Vec<String>,
}

impl Analysis {
    /// A metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.e2e.iter().chain(&self.layer).find(|m| m.name == name)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Wall nanoseconds of `[start, end)` covered by the union of `spans`
/// (clipped to the interval). Spans from parallel workers overlap, so they
/// are merged rather than summed.
pub fn covered_ns(spans: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in spans.iter() {
        let (s, e) = (s.max(start), e.min(end));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Analyze one phase of `workload` against the pinned digests `pins`
/// (`(trace index, digest)` pairs for this workload and seed).
pub fn analyze(
    phase: &Phase,
    workload: &WorkloadSpec,
    vocab_size: usize,
    pins: &[(usize, u64)],
) -> Analysis {
    let mut failures = phase.errors.clone();
    // Per-request positions index the whole log; rates use the timed window.
    let all_ticks = &phase.ticks;
    let ticks = &all_ticks[phase.window..];
    let wall_s = secs(phase.wall_ns());

    // Requests: correctness, digests and latency samples.
    let mut digests = Vec::new();
    let mut ttfts = Vec::new();
    let mut tbt_ms = Vec::new();
    let mut queue_ms = Vec::new();
    let (mut hit_rate_sum, mut recalled_bytes, mut generated) = (0.0, 0u64, 0usize);
    let mut timed_completed = 0usize;
    for r in &phase.requests {
        if let (true, Some(pos)) = (r.timed, r.admit_pos) {
            queue_ms.push(ms(all_ticks[pos].start_ns.saturating_sub(r.submit_ns)));
        }
        let Some(m) = &r.metrics else { continue };
        if !m.outcome.is_completed() {
            failures.push(format!("request {} ended {}", r.index, m.outcome.name()));
            continue;
        }
        if m.tokens.len() != r.max_new_tokens || m.tokens.iter().any(|&t| t >= vocab_size) {
            failures.push(format!(
                "request {} returned {} tokens (want {} in-vocab tokens)",
                r.index,
                m.tokens.len(),
                r.max_new_tokens
            ));
            continue;
        }
        let digest = stream_digest(r.index, &m.tokens);
        if let Some(&(_, pinned)) = pins.iter().find(|(i, _)| *i == r.index) {
            if pinned != digest {
                failures.push(format!(
                    "request {} stream digest {digest:016x} != pinned {pinned:016x}",
                    r.index
                ));
                continue;
            }
        }
        digests.push((r.index, digest));
        if !r.timed {
            continue;
        }
        timed_completed += 1;
        hit_rate_sum += m.cache_hit_rate;
        recalled_bytes += m.bytes_recalled.get();
        generated += m.tokens.len();
        let (Some(admit), Some(finish), Some(first_at)) =
            (r.admit_pos, r.finish_pos, m.first_token_at)
        else {
            continue;
        };
        match token_tick(all_ticks, admit, first_at.get()) {
            Some(first) if first <= finish && finish - first + 1 == m.tokens.len() => {
                ttfts.push((r.index, ms(all_ticks[first].end_ns.saturating_sub(r.submit_ns))));
                tbt_ms.extend(tbt_samples(all_ticks, first, finish).map(ms));
            }
            first => failures.push(format!(
                "request {}: first-token tick {first:?} inconsistent with finish tick {finish} and {} tokens",
                r.index,
                m.tokens.len()
            )),
        }
    }
    digests.sort_unstable();
    ttfts.sort_unstable_by_key(|&(i, _)| i);
    let ttft_ms: Vec<f64> = ttfts.iter().map(|&(_, t)| t).collect();

    // End to end.
    let gen_tokens: usize = ticks.iter().map(|t| t.decode_tokens).sum();
    let prompt_tokens: usize = ticks.iter().map(|t| t.prefill_tokens).sum();
    let mut e2e = vec![
        Metric::new(
            "gen_tok_s",
            "tok/s",
            ratio(gen_tokens as f64, wall_s),
            Some(gen_tokens),
        ),
        Metric::new(
            "prompt_tok_s",
            "tok/s",
            ratio(prompt_tokens as f64, wall_s),
            Some(prompt_tokens),
        ),
        Metric::new("ttft_p50_ms", "ms", median(&ttft_ms), Some(ttft_ms.len())),
    ];
    if let Some(v) = reportable_percentile(&tbt_ms, 50.0) {
        e2e.push(Metric::new("tbt_p50_ms", "ms", v, Some(tbt_ms.len())));
    }
    // The highest tail percentile each distribution has the samples for.
    for (samples, names) in [
        (&ttft_ms, ["ttft_p99_ms", "ttft_p95_ms", "ttft_p90_ms"]),
        (&tbt_ms, ["tbt_p99_ms", "tbt_p95_ms", "tbt_p90_ms"]),
    ] {
        let tail = names
            .into_iter()
            .zip([99.0, 95.0, 90.0])
            .find_map(|(name, p)| Some((name, reportable_percentile(samples, p)?)));
        if let Some((name, v)) = tail {
            e2e.push(Metric::new(name, "ms", v, Some(samples.len())));
        }
    }
    // Properties.
    let c = &phase.counts;
    let plan_calls = c.get(Counter::PlanCalls);
    let (prefix_hits, prefix_lookups, evicted) = match &phase.prefix {
        Some((a, b)) => (
            b.hit_tokens - a.hit_tokens,
            (b.hit_tokens + b.miss_tokens) - (a.hit_tokens + a.miss_tokens),
            b.evicted_nodes - a.evicted_nodes,
        ),
        None => (0, 0, 0),
    };
    let decode_only = || ticks.iter().filter(|t| t.is_decode_only());
    let decode_only_ns: u64 = decode_only().map(TickRecord::ns).sum();
    let properties = Properties {
        plan_selective_frac: ratio(c.get(Counter::PlanSelective) as f64, plan_calls as f64),
        prefix_hit_frac: ratio(prefix_hits as f64, prefix_lookups as f64),
        decode_tick_frac: ratio(decode_only().count() as f64, ticks.len() as f64),
    };
    failures.extend(workload.sides.violations(&properties, plan_calls));
    e2e.push(Metric::new(
        "fail_frac",
        "frac",
        ratio(failures.len() as f64, phase.attempted as f64),
        Some(phase.attempted),
    ));

    // Per layer: counts.
    let decode_ticks = ticks.iter().filter(|t| t.decode_tokens > 0).count();
    let mut layer = vec![
        Metric::new("core.plan_calls", "count", plan_calls as f64, None),
        Metric::new(
            "core.scored_per_plan",
            "count",
            ratio(c.get(Counter::ScoredVectors) as f64, plan_calls as f64),
            Some(plan_calls as usize),
        ),
        Metric::new(
            "core.plan_selective_frac",
            "frac",
            properties.plan_selective_frac,
            Some(plan_calls as usize),
        ),
        Metric::new(
            "core.kmeans_calls",
            "count",
            c.get(Counter::Kmeans) as f64,
            None,
        ),
        Metric::new("sched.ticks", "count", ticks.len() as f64, None),
        Metric::new(
            "sched.decode_batch_mean",
            "count",
            ratio(gen_tokens as f64, decode_ticks as f64),
            Some(decode_ticks),
        ),
        Metric::new(
            "sched.queue_wait_ms_p50",
            "ms",
            median(&queue_ms),
            Some(queue_ms.len()),
        ),
        Metric::new(
            "sched.decode_tick_frac",
            "frac",
            properties.decode_tick_frac,
            Some(ticks.len()),
        ),
        Metric::new(
            "sched.decode_tick_wall_frac",
            "frac",
            ratio(decode_only_ns as f64, phase.wall_ns() as f64),
            Some(ticks.len()),
        ),
        Metric::new("sched.modeled_s", "s", phase.modeled_s, None),
        Metric::new("sched.wall_s", "s", wall_s, None),
        Metric::new(
            "kvcache.hit_rate",
            "frac",
            ratio(hit_rate_sum, timed_completed as f64),
            Some(timed_completed),
        ),
        Metric::new(
            "kvcache.recalled_kib_per_token",
            "KiB",
            ratio(recalled_bytes as f64 / 1024.0, generated as f64),
            Some(generated),
        ),
        Metric::new(
            "kvcache.prefix_hit_frac",
            "frac",
            properties.prefix_hit_frac,
            None,
        ),
        Metric::new(
            "kvcache.prefix_evicted_nodes",
            "count",
            evicted as f64,
            None,
        ),
    ];
    if !phase.spans.is_empty() {
        layer.extend(span_metrics(&phase.spans, all_ticks, phase.window));
    }

    Analysis {
        e2e,
        layer,
        digests,
        ttfts,
        properties,
        failures,
    }
}

/// Per-layer times from a traced phase's spans; `ticks[window..]` is the
/// timed window the spans were recorded in.
fn span_metrics(spans: &[Span], ticks: &[TickRecord], window: usize) -> Vec<Metric> {
    let durations = |kind: SpanKind, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ns() as f64 / scale)
            .collect()
    };
    let p50 =
        |name, unit, values: Vec<f64>| Metric::new(name, unit, median(&values), Some(values.len()));

    // Core spans grouped by parent tick, for self-time subtraction.
    let mut core: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ticks.len()];
    let mut kmeans: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ticks.len()];
    for s in spans {
        let Some(tick) = core.get_mut(s.tick as usize) else {
            continue;
        };
        tick.push((s.start_ns, s.end_ns));
        if s.kind == SpanKind::Kmeans {
            kmeans[s.tick as usize].push((s.start_ns, s.end_ns));
        }
    }
    let (mut decode_ns, mut decode_self_ns, mut decode_tokens) = (0u64, 0u64, 0usize);
    for (i, t) in ticks.iter().enumerate().skip(window) {
        if t.is_decode_only() {
            let covered = covered_ns(&mut core[i], t.start_ns, t.end_ns);
            decode_ns += t.ns();
            decode_self_ns += t.ns() - covered;
            decode_tokens += t.decode_tokens;
        }
    }
    // After the warm-up the clients are staggered, so prompt chunks nearly
    // always share a tick with other requests' decodes. A prefill tick's
    // prompt share is its time minus its k-means spans and minus its decode
    // tokens at this run's decode-only cost per token.
    let decode_ns_per_token = ratio(decode_ns as f64, decode_tokens as f64);
    let (mut prefill_ns, mut prefill_tokens) = (0.0, 0usize);
    for (i, t) in ticks.iter().enumerate().skip(window) {
        if t.prefill_tokens > 0 {
            let kmeans_ns = covered_ns(&mut kmeans[i], t.start_ns, t.end_ns);
            let decode_ns = t.decode_tokens as f64 * decode_ns_per_token;
            prefill_ns += ((t.ns() - kmeans_ns) as f64 - decode_ns).max(0.0);
            prefill_tokens += t.prefill_tokens;
        }
    }
    vec![
        p50("core.plan_us_p50", "us", durations(SpanKind::Plan, 1e3)),
        p50("core.kmeans_ms_p50", "ms", durations(SpanKind::Kmeans, 1e6)),
        p50("core.append_us_p50", "us", durations(SpanKind::Append, 1e3)),
        p50(
            "core.chunk_observe_us_p50",
            "us",
            durations(SpanKind::ChunkObserve, 1e3),
        ),
        Metric::new(
            "sched.decode_ms_per_token",
            "ms",
            ratio(ms(decode_ns), decode_tokens as f64),
            Some(decode_tokens),
        ),
        Metric::new(
            "model.self_ms_per_token",
            "ms",
            ratio(ms(decode_self_ns), decode_tokens as f64),
            Some(decode_tokens),
        ),
        Metric::new(
            "sched.prefill_ms_per_token",
            "ms",
            ratio(prefill_ns / 1e6, prefill_tokens as f64),
            Some(prefill_tokens),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut spans = vec![(5, 15), (0, 3), (10, 20), (30, 40)];
        // [2, 35): (2,3) + (5,20) + (30,35) = 1 + 15 + 5.
        assert_eq!(covered_ns(&mut spans, 2, 35), 21);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }

    #[test]
    fn prefill_time_excludes_kmeans_and_co_batched_decode() {
        let tick = |start_ms: u64, end_ms: u64, prefill_tokens, decode_tokens| TickRecord {
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            clock_before: 0.0,
            clock_after: 0.0,
            prefill_tokens,
            decode_tokens,
        };
        // Decode-only: 10 ms for 2 tokens. Mixed: 30 ms for 64 prompt
        // tokens, 2 decode tokens and a 4 ms k-means span.
        let ticks = vec![tick(0, 10, 0, 2), tick(10, 40, 64, 2)];
        let spans = [Span {
            kind: SpanKind::Kmeans,
            start_ns: 20_000_000,
            end_ns: 24_000_000,
            tick: 1,
            session: 0,
        }];
        let metrics = span_metrics(&spans, &ticks, 0);
        let get = |name| metrics.iter().find(|m| m.name == name).unwrap();
        assert_eq!(get("sched.decode_ms_per_token").value, 5.0);
        // (30 - 4 - 2 × 5) ms over 64 tokens.
        assert_eq!(get("sched.prefill_ms_per_token").value, 0.25);
        assert_eq!(get("sched.prefill_ms_per_token").samples, Some(64));
        assert_eq!(get("core.kmeans_ms_p50").value, 4.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(reportable_percentile(&v, 50.0), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(reportable_percentile(&v, 50.0), Some(10.0));
        assert_eq!(reportable_percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(reportable_percentile(&v, 99.0), Some(990.0));
    }

    #[test]
    fn stream_digests_depend_on_position_and_order() {
        let a = stream_digest(0, &[1, 2, 3]);
        assert_ne!(a, stream_digest(1, &[1, 2, 3]));
        assert_ne!(a, stream_digest(0, &[3, 2, 1]));
        assert_ne!(a, stream_digest(0, &[1, 2]));
        assert_eq!(a, stream_digest(0, &[1, 2, 3]));
    }
}

//! The one engine configuration every workload runs on, and the workloads.

use std::sync::Arc;

use clusterkv::{ClusterKvConfig, ClusterKvFactory};
use clusterkv_kvcache::types::{Budget, Bytes};
use clusterkv_model::{ModelConfig, ServeEngine};
use clusterkv_sched::{Request, SchedConfig, Scheduler};
use clusterkv_workloads::harness::{generate_traffic, TrafficConfig};

use crate::analysis::Properties;
use crate::probe::{Probe, TimedFactory};

/// Model and workload sizes: the benchmark proper, or a miniature of the
/// same shapes for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmarked configuration.
    Full,
    /// A tiny model and short prompts with the same selective/non-selective
    /// split per workload, fast enough for debug-build tests.
    Smoke,
}

/// Engine configuration shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    /// Model shape.
    pub model: ModelConfig,
    /// Seed of the synthetic weights.
    pub weight_seed: u64,
    /// ClusterKV configuration.
    pub clusterkv: ClusterKvConfig,
    /// Selection budget in tokens.
    pub budget: usize,
    /// Per-session cluster cache, in selected tokens per step
    /// (`ModelConfig::selected_kv_bytes_per_step`).
    pub cache_tokens: usize,
    /// Prefix-store capacity in bytes.
    pub prefix_store: Bytes,
    /// Scheduler session cap (at least the largest client count).
    pub max_sessions: usize,
}

impl EngineSpec {
    /// The configuration at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                model: ModelConfig {
                    num_layers: 4,
                    num_heads: 8,
                    num_kv_heads: 2,
                    head_dim: 64,
                    ffn_dim: 1024,
                    vocab_size: 4096,
                    max_context: 4096,
                    dense_layers: 1,
                },
                weight_seed: 0x5E27E,
                clusterkv: ClusterKvConfig::default().with_tokens_per_cluster(16),
                budget: 256,
                cache_tokens: 256,
                prefix_store: Bytes(6 << 20),
                max_sessions: 4,
            },
            Scale::Smoke => Self {
                model: ModelConfig {
                    num_layers: 2,
                    num_heads: 2,
                    num_kv_heads: 1,
                    head_dim: 16,
                    ffn_dim: 32,
                    vocab_size: 128,
                    max_context: 512,
                    dense_layers: 1,
                },
                weight_seed: 0x5E27E,
                clusterkv: ClusterKvConfig::default()
                    .with_tokens_per_cluster(4)
                    .with_sink_tokens(4),
                budget: 32,
                cache_tokens: 32,
                prefix_store: Bytes(256 << 10),
                max_sessions: 4,
            },
        }
    }

    /// Selectors the engine creates per session (one per selective-layer
    /// query head).
    pub fn selectors_per_session(&self) -> usize {
        (self.model.num_layers - self.model.dense_layers) * self.model.num_heads
    }

    /// Build the engine with the timing wrapper installed around ClusterKV,
    /// wrapped in an FCFS scheduler with default chunking. Faults, prefetch
    /// and compression stay at their off defaults.
    pub fn scheduler(&self, probe: &Arc<Probe>) -> Result<Scheduler, String> {
        let policy = TimedFactory::new(
            Box::new(ClusterKvFactory::new(self.clusterkv)),
            Arc::clone(probe),
            self.selectors_per_session(),
        );
        let engine = ServeEngine::builder(self.model)
            .synthetic_weights(self.weight_seed)
            .budget(Budget::new(self.budget))
            .policy(Box::new(policy))
            .max_sessions(self.max_sessions)
            .kv_cache_capacity(Bytes(
                self.model.selected_kv_bytes_per_step(self.cache_tokens),
            ))
            .prefix_store(self.prefix_store)
            .build()
            .map_err(|e| format!("engine build: {e}"))?;
        Scheduler::new(engine, SchedConfig::fcfs(self.max_sessions))
            .map_err(|e| format!("scheduler: {e}"))
    }
}

/// One closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Closed-loop clients: each has at most one request in flight.
    pub clients: usize,
    /// Inclusive prompt-length range, including any shared document.
    pub prompt_len: (usize, usize),
    /// Inclusive output-length range.
    pub output_len: (usize, usize),
    /// Requests per length stratum after the warm-up (see [`Self::trace`]),
    /// and the unit a repeat's request count is a multiple of.
    pub block: usize,
    /// Length of the document every prompt starts with, prefilled once in
    /// set-up (0 = unique prompts).
    pub document: usize,
    /// Requests generated per trace (more than any run consumes).
    pub trace_len: usize,
    /// Where the workload's property shares must stay.
    pub sides: Sides,
    /// Requests per wall second this workload completes on the reference
    /// host (2 cores, 2 workers); sizes a run from its `--seconds`.
    pub reference_rps: f64,
}

/// Inclusive ranges a workload's property shares must stay in: a run that
/// leaves them fails, so a workload cannot quietly stop measuring what it
/// was chosen for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sides {
    /// `core.plan_selective_frac`.
    pub plan_selective: (f64, f64),
    /// `kvcache.prefix_hit_frac`.
    pub prefix_hit: (f64, f64),
    /// `sched.decode_tick_frac`.
    pub decode_ticks: (f64, f64),
}

impl Sides {
    /// One line per property outside its range.
    pub fn violations(&self, p: &Properties, plan_calls: u64) -> Vec<String> {
        let mut out = Vec::new();
        if plan_calls == 0 {
            out.push("no selection plan ran".to_string());
        }
        for (name, value, (lo, hi)) in [
            (
                "core.plan_selective_frac",
                p.plan_selective_frac,
                self.plan_selective,
            ),
            (
                "kvcache.prefix_hit_frac",
                p.prefix_hit_frac,
                self.prefix_hit,
            ),
            (
                "sched.decode_tick_frac",
                p.decode_tick_frac,
                self.decode_ticks,
            ),
        ] {
            if !(lo..=hi).contains(&value) {
                out.push(format!("{name} = {value:.4} left its side [{lo}, {hi}]"));
            }
        }
        out
    }
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["chat_short", "doc_qa"];

impl WorkloadSpec {
    /// The workload `name` at `scale`.
    pub fn named(name: &str, scale: Scale) -> Option<Self> {
        let full = scale == Scale::Full;
        let spec = match name {
            "chat_short" => Self {
                name: "chat_short",
                clients: 4,
                prompt_len: if full { (64, 192) } else { (8, 16) },
                output_len: if full { (32, 64) } else { (4, 8) },
                block: if full { 10 } else { 4 },
                document: 0,
                trace_len: 1024,
                // Context never exceeds the budget, prompts are unique, and
                // prefill chunks interleave with decode in many ticks.
                sides: Sides {
                    plan_selective: (0.0, 0.0),
                    prefix_hit: (0.0, 0.05),
                    decode_ticks: (0.5, 0.95),
                },
                reference_rps: 1.0,
            },
            "doc_qa" => {
                let doc = if full { 2048 } else { 128 };
                Self {
                    name: "doc_qa",
                    clients: 2,
                    prompt_len: if full {
                        (doc + 32, doc + 64)
                    } else {
                        (doc + 4, doc + 8)
                    },
                    output_len: if full { (192, 256) } else { (24, 32) },
                    block: 2,
                    document: doc,
                    trace_len: 128,
                    // Every decode step selects, the document is served
                    // from the prefix store, and the long outputs make most
                    // ticks decode-only.
                    sides: Sides {
                        plan_selective: (0.95, 1.0),
                        prefix_hit: (0.9, 1.0),
                        decode_ticks: (0.5, 0.95),
                    },
                    reference_rps: 0.25,
                }
            }
            _ => return None,
        };
        Some(spec)
    }

    /// Timed requests each of `repeats` repeats serves so that together
    /// they take about `seconds` on the reference host: a whole number of
    /// blocks, at least one. The work is fixed by this count, not by the
    /// wall clock, so a slower host takes longer rather than doing less.
    pub fn repeat_requests(&self, seconds: f64, repeats: usize) -> usize {
        let blocks = seconds * self.reference_rps / (repeats * self.block) as f64;
        blocks.round().max(1.0) as usize * self.block
    }

    /// The request trace for `seed`. `generate_traffic` draws every
    /// prompt's tokens (a shared document first, if the workload has one)
    /// at the longest prompt length. The lengths are then stratified: the
    /// warm-up requests (the first `clients`), and each following block of
    /// `block` requests, get evenly spaced prompt and output lengths across
    /// their ranges, shuffled by the seed (prompts are cut to theirs). So
    /// every seed serves the same total prompt and output tokens in each
    /// block, and seeds differ in contents, pairing and order, not in how
    /// much work a block is. Arrival times are ignored: the closed loop
    /// stamps each request with the scheduler clock when its client submits
    /// it.
    pub fn trace(&self, vocab_size: usize, seed: u64) -> Vec<Request> {
        let mut config = TrafficConfig::new(self.trace_len, 1.0, vocab_size)
            .with_prompt_len(self.prompt_len.1, self.prompt_len.1)
            .with_output_len(self.output_len.1, self.output_len.1)
            .with_seed(seed);
        if self.document > 0 {
            config = config.with_prefix_templates(1, self.document, self.document);
        }
        let mut trace = generate_traffic(&config);
        let mut rng = SplitMix(seed ^ 0x5EB1_0C45);
        let mut start = 0;
        for len in std::iter::once(self.clients).chain(std::iter::repeat(self.block)) {
            if start >= trace.len() {
                break;
            }
            let end = (start + len).min(trace.len());
            let block = &mut trace[start..end];
            let prompts = rng.shuffled(strata(self.prompt_len, block.len()));
            let outputs = rng.shuffled(strata(self.output_len, block.len()));
            for ((request, p), o) in block.iter_mut().zip(prompts).zip(outputs) {
                request.prompt.truncate(p);
                request.max_new_tokens = o;
            }
            start = end;
        }
        trace
    }

    /// The shared document of a trace (the first `document` tokens every
    /// prompt starts with), if the workload has one.
    pub fn document_of<'a>(&self, trace: &'a [Request]) -> Option<&'a [usize]> {
        (self.document > 0).then(|| &trace[0].prompt[..self.document])
    }
}

/// `n` evenly spaced values across the inclusive range `(lo, hi)`: the
/// midpoints of `n` equal strata.
fn strata((lo, hi): (usize, usize), n: usize) -> Vec<usize> {
    let span = hi - lo + 1;
    (0..n).map(|k| lo + (2 * k + 1) * span / (2 * n)).collect()
}

/// SplitMix64, the bench's own seeded shuffle.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `values` in a seeded Fisher–Yates order.
    fn shuffled(&mut self, mut values: Vec<usize>) -> Vec<usize> {
        for i in (1..values.len()).rev() {
            values.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_are_evenly_spaced_inside_the_range() {
        assert_eq!(strata((32, 64), 1), vec![48]);
        assert_eq!(strata((192, 256), 2), vec![208, 240]);
        let s = strata((64, 192), 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s[0] > 64 && s[9] < 192);
    }

    #[test]
    fn every_seed_serves_the_same_work_per_block() {
        let spec = WorkloadSpec::named("chat_short", Scale::Full).unwrap();
        let vocab = 4096;
        let totals = |seed| {
            let trace = spec.trace(vocab, seed);
            let block = |r: &[Request]| -> (usize, usize) {
                (
                    r.iter().map(|q| q.prompt.len()).sum(),
                    r.iter().map(|q| q.max_new_tokens).sum(),
                )
            };
            let (warmup, rest) = trace.split_at(spec.clients);
            (
                block(warmup),
                block(&rest[..spec.block]),
                block(&rest[spec.block..2 * spec.block]),
            )
        };
        let first = totals(1);
        assert_eq!(first.1, first.2);
        for seed in 2..6 {
            assert_eq!(totals(seed), first);
        }
        // Lengths stay in range; seeds differ in pairing and contents.
        let (a, b) = (spec.trace(vocab, 1), spec.trace(vocab, 2));
        assert!(a.iter().all(|r| (64..=192).contains(&r.prompt.len())));
        assert!(a.iter().all(|r| (32..=64).contains(&r.max_new_tokens)));
        assert_ne!(a[..14], b[..14]);
        assert_eq!(spec.trace(vocab, 1)[..14], a[..14]);
    }

    #[test]
    fn doc_qa_prompts_keep_the_whole_document() {
        let spec = WorkloadSpec::named("doc_qa", Scale::Full).unwrap();
        let trace = spec.trace(4096, 3);
        let doc = spec.document_of(&trace).unwrap();
        for r in &trace[..8] {
            assert!((2048 + 32..=2048 + 64).contains(&r.prompt.len()));
            assert_eq!(&r.prompt[..2048], doc);
        }
    }

    #[test]
    fn repeats_serve_whole_blocks() {
        let chat = WorkloadSpec::named("chat_short", Scale::Full).unwrap();
        assert_eq!(chat.repeat_requests(30.0, 3), 10);
        assert_eq!(chat.repeat_requests(1.0, 3), 10);
        assert_eq!(chat.repeat_requests(60.0, 3), 20);
        let doc = WorkloadSpec::named("doc_qa", Scale::Full).unwrap();
        assert_eq!(doc.repeat_requests(30.0, 3), 2);
    }
}

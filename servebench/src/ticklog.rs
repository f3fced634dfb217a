//! The wall-clock tick log and the mapping from modeled request timestamps
//! to the ticks that produced them.
//!
//! `RequestMetrics::first_token_at` is *modeled* time: the scheduler's clock
//! at the end of the tick whose decode batch produced the token. The closed
//! loop logs every tick's modeled interval next to its wall interval, so the
//! first-token tick is the decode tick whose modeled interval
//! `(clock_before, clock_after]` holds the timestamp. Decode ticks always
//! advance the clock, so at most one decode tick matches; ticks without a
//! decode step (a prefill chunk the prefix store served for free costs zero
//! modeled time) are skipped, because they cannot produce a token.

/// One logged `Scheduler::tick`.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    /// Wall-clock start of the call (ns on the run's clock).
    pub start_ns: u64,
    /// Wall-clock end of the call.
    pub end_ns: u64,
    /// Modeled clock before the tick (seconds).
    pub clock_before: f64,
    /// Modeled clock after the tick.
    pub clock_after: f64,
    /// Prompt tokens forwarded as prefill chunks.
    pub prefill_tokens: usize,
    /// Decode steps executed (one token each).
    pub decode_tokens: usize,
}

impl TickRecord {
    /// Wall duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Same contents (tokens and modeled interval), whatever the wall times.
    pub fn same_work(&self, other: &TickRecord) -> bool {
        self.prefill_tokens == other.prefill_tokens
            && self.decode_tokens == other.decode_tokens
            && self.clock_before.to_bits() == other.clock_before.to_bits()
            && self.clock_after.to_bits() == other.clock_after.to_bits()
    }

    /// A tick that only decoded.
    pub fn is_decode_only(&self) -> bool {
        self.decode_tokens > 0 && self.prefill_tokens == 0
    }
}

/// Position in `log` of the tick that produced a token stamped
/// `modeled_at`, searching from position `from` (the request's admission
/// tick). `None` if no logged decode tick matches.
pub fn token_tick(log: &[TickRecord], from: usize, modeled_at: f64) -> Option<usize> {
    log.iter()
        .enumerate()
        .skip(from)
        .find(|(_, t)| {
            t.decode_tokens > 0 && t.clock_before < modeled_at && modeled_at <= t.clock_after
        })
        .map(|(i, _)| i)
}

/// The time-between-tokens samples of a request whose first token came out
/// of tick `first` and whose last came out of tick `finish`: each decoding
/// request gains exactly one token per tick, so every tick after the first
/// up to the finish contributes its wall duration (ns).
pub fn tbt_samples(
    log: &[TickRecord],
    first: usize,
    finish: usize,
) -> impl Iterator<Item = u64> + '_ {
    log[first + 1..=finish].iter().map(TickRecord::ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tick of `ms` wall milliseconds starting where the previous ended,
    /// advancing the modeled clock by `modeled`.
    fn push(log: &mut Vec<TickRecord>, ms: u64, modeled: f64, prefill: usize, decode: usize) {
        let (start_ns, clock_before) = log.last().map_or((0, 0.0), |t| (t.end_ns, t.clock_after));
        log.push(TickRecord {
            start_ns,
            end_ns: start_ns + ms * 1_000_000,
            clock_before,
            clock_after: clock_before + modeled,
            prefill_tokens: prefill,
            decode_tokens: decode,
        });
    }

    #[test]
    fn first_token_on_a_tick_boundary_belongs_to_the_tick_that_ends_there() {
        let mut log = Vec::new();
        push(&mut log, 10, 0.5, 64, 0); // prefill: (0, 0.5]
        push(&mut log, 20, 0.25, 0, 1); // decode: (0.5, 0.75]
        push(&mut log, 30, 0.25, 0, 1); // decode: (0.75, 1.0]
                                        // 0.75 is the end of tick 1 and the start of tick 2.
        assert_eq!(token_tick(&log, 0, 0.75), Some(1));
        assert_eq!(token_tick(&log, 0, 1.0), Some(2));
        // A timestamp inside a prefill-only tick matches nothing.
        assert_eq!(token_tick(&log, 0, 0.5), None);
        assert_eq!(
            tbt_samples(&log, 1, 2).collect::<Vec<_>>(),
            vec![30_000_000]
        );
    }

    #[test]
    fn zero_cost_ticks_are_skipped() {
        let mut log = Vec::new();
        push(&mut log, 10, 0.5, 0, 1); // (0, 0.5]
        push(&mut log, 5, 0.0, 64, 0); // fast-path chunk: (0.5, 0.5]
        push(&mut log, 7, 0.25, 0, 1); // (0.5, 0.75]
        assert_eq!(token_tick(&log, 0, 0.5), Some(0));
        assert_eq!(token_tick(&log, 1, 0.75), Some(2));
        assert_eq!(
            tbt_samples(&log, 0, 2).collect::<Vec<_>>(),
            vec![5_000_000, 7_000_000]
        );
    }

    #[test]
    fn admission_in_the_tick_of_another_completion() {
        // Request A decodes in ticks 0..=2 and completes in tick 2. Its
        // client's next request B arrives at the clock after tick 2 and is
        // admitted in tick 3, which also carries the last decode of a third
        // request C. B's first token comes out of tick 4.
        let mut log = Vec::new();
        push(&mut log, 10, 0.1, 0, 2);
        push(&mut log, 10, 0.1, 0, 2);
        push(&mut log, 10, 0.1, 0, 2); // A completes: clock 0.3
        push(&mut log, 40, 0.4, 64, 1); // B admitted + prefilled, C's last decode
        push(&mut log, 12, 0.1, 0, 1); // B's first token at 0.8
        push(&mut log, 13, 0.1, 0, 1); // B's second token at 0.9
        assert_eq!(token_tick(&log, 0, log[0].clock_after), Some(0));
        // A stamp at the end of tick 3 belongs to tick 3 (C's last token),
        // even though B was admitted in it; B's own first stamp is the end
        // of tick 4.
        assert_eq!(token_tick(&log, 3, log[3].clock_after), Some(3));
        let b_first = token_tick(&log, 3, log[4].clock_after).unwrap();
        assert_eq!(b_first, 4);
        assert_eq!(
            tbt_samples(&log, b_first, 5).collect::<Vec<_>>(),
            vec![13_000_000]
        );
        // Wall TTFT of B, submitted at the end of tick 2: ticks 3 and 4.
        let ttft_ns = log[b_first].end_ns - log[2].end_ns;
        assert_eq!(ttft_ns, 52_000_000);
    }
}

//! Single-session tests of [`ServeEngine`](crate::ServeEngine): one session
//! driven through `prefill`, `decode_step` and `generate`.

mod tests {
    use crate::policy::{FullAttentionFactory, OracleTopKFactory};
    use crate::{EngineError, ModelConfig, ServeEngine, SessionId};
    use clusterkv_kvcache::types::Budget;

    fn tiny_session(
        factory: Box<dyn crate::SelectorFactory>,
        budget: usize,
    ) -> (ServeEngine, SessionId) {
        let mut eng = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(7)
            .budget(Budget::new(budget))
            .policy(factory)
            .build()
            .unwrap();
        let s = eng.create_session().unwrap();
        (eng, s)
    }

    #[test]
    fn prefill_populates_kv_stores() {
        let (mut eng, s) = tiny_session(Box::new(FullAttentionFactory), 64);
        eng.prefill(s, &[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(eng.context_len(s).unwrap(), 5);
        for layer in 0..eng.config().num_layers {
            for kv_head in 0..eng.config().num_kv_heads {
                assert_eq!(eng.kv_store(s, layer, kv_head).unwrap().len(), 5);
            }
        }
    }

    #[test]
    fn decode_before_prefill_errors() {
        let (mut eng, s) = tiny_session(Box::new(FullAttentionFactory), 64);
        assert_eq!(
            eng.decode_step(s, 1).unwrap_err(),
            EngineError::NotPrefilled
        );
    }

    #[test]
    fn empty_prompt_errors() {
        let (mut eng, s) = tiny_session(Box::new(FullAttentionFactory), 64);
        assert!(eng.prefill(s, &[]).is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let (mut a, sa) = tiny_session(Box::new(FullAttentionFactory), 64);
        let (mut b, sb) = tiny_session(Box::new(FullAttentionFactory), 64);
        let ga = a.generate(sa, &[3, 14, 15, 9, 26], 6).unwrap();
        let gb = b.generate(sb, &[3, 14, 15, 9, 26], 6).unwrap();
        assert_eq!(ga, gb);
        assert_eq!(ga.len(), 6);
        assert!(ga.iter().all(|&t| t < a.config().vocab_size));
    }

    #[test]
    fn policy_stats_aggregate_over_heads() {
        let (mut eng, s) = tiny_session(Box::new(OracleTopKFactory), 4);
        eng.prefill(s, &[1, 2, 3, 4, 5, 6]).unwrap();
        eng.decode_step(s, 2).unwrap();
        let stats = eng.session_stats(s).unwrap();
        assert!(stats.scored_vectors > 0);
    }
}

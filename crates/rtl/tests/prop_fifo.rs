//! Property test for the bridge's synchronous FIFO: behaviour against a
//! bounded `VecDeque` reference under arbitrary push/pop sequences.
//!
//! Runs offline on the in-repo `xtuml-prop` harness; reproduce a failure
//! with the `XTUML_PROP_SEED` value printed on panic.

use std::collections::VecDeque;
use xtuml_rtl::SyncFifo;

/// The FIFO agrees with a bounded VecDeque reference model under an
/// arbitrary push/pop sequence.
#[test]
fn prop_fifo_matches_reference() {
    xtuml_prop::run("fifo_matches_reference", |g| {
        let depth = 1 + g.index(7);
        let n_ops = g.index(64);
        let ops: Vec<Option<u32>> = (0..n_ops)
            .map(|_| {
                if g.ratio(2, 3) {
                    Some(g.below(100) as u32)
                } else {
                    None
                }
            })
            .collect();
        let mut fifo = SyncFifo::new(depth);
        let mut reference: VecDeque<u32> = VecDeque::new();
        let mut overflows = 0u64;
        for op in ops {
            match op {
                Some(v) => {
                    let accepted = fifo.push(v);
                    if reference.len() < depth {
                        assert!(accepted);
                        reference.push_back(v);
                    } else {
                        assert!(!accepted);
                        overflows += 1;
                    }
                }
                None => {
                    assert_eq!(fifo.pop(), reference.pop_front());
                }
            }
            assert_eq!(fifo.len(), reference.len());
            assert_eq!(fifo.is_empty(), reference.is_empty());
            assert_eq!(fifo.is_full(), reference.len() == depth);
            assert_eq!(fifo.front(), reference.front());
        }
        assert_eq!(fifo.overflows(), overflows);
    });
}

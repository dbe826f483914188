//! Dynamic query planning (paper §III-B).
//!
//! The bidirectional edge index means "the execution is not restricted to
//! the forward-looking lexical representation of the path query"; planning
//! is "a series of decisions on which order to traverse the edge indexes".
//! Here that is the choice of the binding-enumeration start step (most
//! selective first) and, implicitly, the traversal direction of every
//! index hop. [`PlanMode`] exposes the lexical-order baselines for the
//! planner-ablation experiment (EXP-PLAN).

/// How the enumeration order is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Start at the step with the fewest candidates after culling.
    #[default]
    Auto,
    /// Always start at the first (leftmost) step — the lexical order.
    ForwardOnly,
    /// Always start at the last step — the reverse lexical order.
    ReverseOnly,
}

/// Execution configuration knobs (ablations + safety limits).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    pub plan_mode: PlanMode,
    /// Semi-join culling before enumeration (EXP-CULL ablation).
    pub culling: bool,
    /// Default per-query governance budget (deadline + row/byte caps).
    /// Sessions mint one `QueryGuard` per request from this; the network
    /// server additionally folds in its per-request deadline.
    pub budget: graql_types::QueryBudget,
    /// Worker threads for the morsel-driven parallel kernels (candidate
    /// scans, hop expansion, path enumeration, filter/sort). `1` is the
    /// serial path; any value produces byte-identical results because the
    /// morsel merge restores serial order (see `graql_table::morsel`).
    /// Defaults to the number of available cores.
    pub threads: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            plan_mode: PlanMode::Auto,
            culling: true,
            budget: graql_types::QueryBudget::UNLIMITED,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Chooses the binding order over `n` steps given per-step candidate
/// counts. The order is contiguous: every step after the first is adjacent
/// to an already-bound step, so each extension walks one edge index.
pub fn choose_order(counts: &[usize], mode: PlanMode) -> Vec<usize> {
    let n = counts.len();
    if n == 0 {
        return Vec::new();
    }
    let start = match mode {
        PlanMode::ForwardOnly => 0,
        PlanMode::ReverseOnly => n - 1,
        PlanMode::Auto => counts
            .iter()
            .enumerate()
            .min_by_key(|&(i, &c)| (c, i))
            .map(|(i, _)| i)
            .unwrap_or(0),
    };
    let mut order = Vec::with_capacity(n);
    order.extend(start..n);
    order.extend((0..start).rev());
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_starts_at_min_count() {
        assert_eq!(choose_order(&[100, 3, 50], PlanMode::Auto), vec![1, 2, 0]);
        assert_eq!(
            choose_order(&[1, 1, 1], PlanMode::Auto),
            vec![0, 1, 2],
            "ties go left"
        );
    }

    #[test]
    fn lexical_modes() {
        assert_eq!(
            choose_order(&[5, 1, 5], PlanMode::ForwardOnly),
            vec![0, 1, 2]
        );
        assert_eq!(
            choose_order(&[5, 1, 5], PlanMode::ReverseOnly),
            vec![2, 1, 0]
        );
    }

    #[test]
    fn orders_are_contiguous() {
        for mode in [PlanMode::Auto, PlanMode::ForwardOnly, PlanMode::ReverseOnly] {
            let order = choose_order(&[9, 2, 7, 7, 1], mode);
            let mut bound = [false; 5];
            bound[order[0]] = true;
            for &s in &order[1..] {
                assert!(
                    (s > 0 && bound[s - 1]) || (s + 1 < 5 && bound[s + 1]),
                    "step {s} not adjacent to bound region in {order:?} ({mode:?})"
                );
                bound[s] = true;
            }
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(choose_order(&[], PlanMode::Auto).is_empty());
        assert_eq!(choose_order(&[7], PlanMode::ReverseOnly), vec![0]);
    }
}

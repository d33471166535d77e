//! The end-to-end optimizer: properties → enumeration → physical costing.

use crate::cost::CostWeights;
use crate::enumerate::enumerate_all;
use crate::physical::{PhysMemo, PhysPlan};
use crate::props::PropTable;
use std::time::{Duration, Instant};
use strato_dataflow::{Plan, PropertyMode};

/// One costed alternative.
#[derive(Debug, Clone)]
pub struct RankedPlan {
    /// The logical operator order.
    pub plan: Plan,
    /// Its best physical realization.
    pub phys: PhysPlan,
    /// Estimated cost (same as `phys.total_cost`).
    pub cost: f64,
}

/// The optimizer's full output: every alternative, cost-ranked.
#[derive(Debug)]
pub struct OptimizerReport {
    /// Alternatives in ascending cost order. `ranked[0]` is the chosen plan.
    pub ranked: Vec<RankedPlan>,
    /// Number of logical orders enumerated.
    pub n_enumerated: usize,
    /// Distinct subtrees physically costed across all alternatives: the
    /// entries of the memo the orders share (`n_enumerated` plans over
    /// this many subtrees shows how much they share).
    pub subtrees_costed: usize,
    /// Wall time spent enumerating orders.
    pub enumeration: Duration,
    /// Wall time spent deriving operator properties.
    pub property_derivation: Duration,
    /// Wall time spent in physical optimization across all alternatives.
    pub physical: Duration,
}

impl OptimizerReport {
    /// The cheapest alternative.
    pub fn best(&self) -> &RankedPlan {
        &self.ranked[0]
    }

    /// The rank (0-based) of the plan with the given canonical form.
    pub fn rank_of(&self, canonical: &str) -> Option<usize> {
        self.ranked
            .iter()
            .position(|r| r.plan.canonical() == canonical)
    }
}

/// The black-box data flow optimizer.
///
/// ```
/// use strato_core::Optimizer;
/// use strato_dataflow::spec::{CmpOp, FlowSpec, MapUdf, NodeSpec, OpSpec, SourceSpec};
/// use strato_dataflow::PropertyMode;
///
/// // source(a, b) → filter a ≥ 0 → filter b ≥ 0: the two filters commute,
/// // so SCA-derived properties let the optimizer enumerate both orders.
/// let plan = FlowSpec::new(NodeSpec::op(
///     OpSpec::map("fb", MapUdf::filter_cmp(1, CmpOp::Ge, 0i64)),
///     vec![NodeSpec::op(
///         OpSpec::map("fa", MapUdf::filter_cmp(0, CmpOp::Ge, 0i64)),
///         vec![NodeSpec::source(SourceSpec::new("s", &["a", "b"], 1_000))],
///     )],
/// ))
/// .build()
/// .unwrap();
///
/// let report = Optimizer::new(PropertyMode::Sca).with_dop(4).optimize(&plan);
/// assert_eq!(report.n_enumerated, 2);
/// // ranked[0] is the winner; `best` returns it directly.
/// assert_eq!(report.best().cost, report.ranked[0].cost);
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    /// Which property source to consult (Table 1's two columns).
    pub mode: PropertyMode,
    /// Cost weights.
    pub weights: CostWeights,
    /// Degree of parallelism assumed by the cost model.
    pub dop: usize,
    /// Safety cap on the number of enumerated alternatives.
    pub cap: usize,
}

impl Optimizer {
    /// An optimizer with default weights, DOP 8 and a 100k-plan cap.
    pub fn new(mode: PropertyMode) -> Self {
        Optimizer {
            mode,
            weights: CostWeights::default(),
            dop: 8,
            cap: 100_000,
        }
    }

    /// Overrides the cost weights.
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Overrides the degree of parallelism.
    pub fn with_dop(mut self, dop: usize) -> Self {
        self.dop = dop;
        self
    }

    /// Overrides the enumeration cap.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = cap;
        self
    }

    /// Derives properties, enumerates all valid orders, costs each
    /// alternative's best physical plan and ranks ascending by cost.
    ///
    /// All orders share one physical memo, so each distinct subtree is
    /// costed once; a physical tree is then built for every order.
    pub fn optimize(&self, plan: &Plan) -> OptimizerReport {
        let (props, alts, property_derivation, enumeration) = self.enumerate(plan);

        let t = Instant::now();
        let mut memo = PhysMemo::new(&props, &self.weights, self.dop);
        let physs: Vec<PhysPlan> = alts
            .iter()
            .map(|p| {
                memo.cost(p);
                memo.build(p)
            })
            .collect();
        let subtrees_costed = memo.len();
        let mut ranked: Vec<RankedPlan> = alts
            .into_iter()
            .zip(physs)
            .map(|(plan, phys)| RankedPlan {
                cost: phys.total_cost,
                phys,
                plan,
            })
            .collect();
        let physical = t.elapsed();
        ranked.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        OptimizerReport {
            n_enumerated: ranked.len(),
            subtrees_costed,
            ranked,
            enumeration,
            property_derivation,
            physical,
        }
    }

    /// Optimizes and returns only the winner: `optimize(plan).ranked[0]`.
    ///
    /// Every order is costed through the shared memo, but only the
    /// winner's physical tree is built. The winner is the first order (in
    /// enumeration order) of minimum cost, which is the one the stable
    /// sort in [`Optimizer::optimize`] puts first.
    pub fn best(&self, plan: &Plan) -> RankedPlan {
        let (props, mut alts, _, _) = self.enumerate(plan);
        let mut memo = PhysMemo::new(&props, &self.weights, self.dop);
        let mut winner = (0, memo.cost(&alts[0]));
        for (i, p) in alts.iter().enumerate().skip(1) {
            let cost = memo.cost(p);
            if cost.total_cmp(&winner.1).is_lt() {
                winner = (i, cost);
            }
        }
        let phys = memo.build(&alts[winner.0]);
        RankedPlan {
            cost: phys.total_cost,
            phys,
            plan: alts.swap_remove(winner.0),
        }
    }

    /// Derives properties and enumerates all valid orders, timing both.
    fn enumerate(&self, plan: &Plan) -> (PropTable, Vec<Plan>, Duration, Duration) {
        let t = Instant::now();
        let props = PropTable::build(plan, self.mode);
        let property_derivation = t.elapsed();
        let t = Instant::now();
        let alts = enumerate_all(plan, &props, self.cap);
        (props, alts, property_derivation, t.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_dataflow::{CostHints, ProgramBuilder, SourceDef};
    use strato_ir::{BinOp, FuncBuilder, Function, UdfKind};

    fn filter_map(w: usize, field: usize, sel: f64) -> (Function, CostHints) {
        let mut b = FuncBuilder::new("filter", UdfKind::Map, vec![w]);
        let v = b.get_input(0, field);
        let z = b.konst(0i64);
        let c = b.bin(BinOp::Lt, v, z);
        let end = b.new_label();
        b.branch(c, end);
        let or = b.copy_input(0);
        b.emit(or);
        b.place(end);
        b.ret();
        (b.finish().unwrap(), CostHints::selectivity(sel))
    }

    fn expensive_map(w: usize, cpu: f64) -> (Function, CostHints) {
        let mut b = FuncBuilder::new("heavy", UdfKind::Map, vec![w]);
        let or = b.copy_input(0);
        let v = b.get_input(0, 0);
        let cost = b.konst(1000i64);
        let burnt = b.call(strato_ir::Intrinsic::Burn, vec![cost, v]);
        b.set(or, w, burnt);
        b.emit(or);
        b.ret();
        (
            b.finish().unwrap(),
            CostHints::selectivity(1.0).with_cpu(cpu),
        )
    }

    /// A selective cheap filter below an expensive map should be pushed
    /// below it by the optimizer (classic selection push-down, discovered
    /// purely from black-box properties).
    #[test]
    fn optimizer_pushes_selective_filter_below_expensive_map() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a", "b"], 100_000).with_bytes_per_row(32));
        let (heavy, heavy_h) = expensive_map(2, 500.0);
        let m1 = p.map("heavy", heavy, heavy_h, s);
        let (filt, filt_h) = filter_map(3, 1, 0.01);
        let m2 = p.map("filter", filt, filt_h, m1);
        let plan = p.finish(m2).unwrap().bind().unwrap();

        let report = Optimizer::new(PropertyMode::Sca).optimize(&plan);
        assert_eq!(report.n_enumerated, 2, "filter and heavy map must swap");
        let best = report.best();
        // In the winning order the filter must run first (deeper in the
        // tree = earlier), i.e. pre-order shows heavy before filter.
        let names: Vec<&str> = best
            .plan
            .op_order()
            .into_iter()
            .map(|o| best.plan.ctx.ops[o].name.as_str())
            .collect();
        assert_eq!(names, vec!["heavy", "filter"], "filter pushed below heavy");
        assert!(best.cost < report.ranked[1].cost);
    }

    #[test]
    fn report_rank_of_finds_original() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a", "b"], 1000));
        let (f1, h1) = filter_map(2, 0, 0.5);
        let m1 = p.map("f1", f1, h1, s);
        let (f2, h2) = filter_map(2, 1, 0.5);
        let m2 = p.map("f2", f2, h2, m1);
        let plan = p.finish(m2).unwrap().bind().unwrap();
        let report = Optimizer::new(PropertyMode::Sca).optimize(&plan);
        assert!(report.rank_of(&plan.canonical()).is_some());
        assert_eq!(report.rank_of("nonsense"), None);
        assert!(report.enumeration.as_nanos() > 0);
        assert!(report.property_derivation.as_nanos() > 0);
        let _ = report.physical;
    }

    #[test]
    fn best_returns_cheapest() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a", "b"], 10_000));
        let (f1, h1) = filter_map(2, 0, 0.01);
        let m1 = p.map("selective", f1, h1, s);
        let (f2, h2) = filter_map(2, 1, 0.9);
        let m2 = p.map("loose", f2, h2, m1);
        let plan = p.finish(m2).unwrap().bind().unwrap();
        let opt = Optimizer::new(PropertyMode::Sca);
        let best = opt.best(&plan);
        let report = opt.optimize(&plan);
        assert_eq!(best.cost, report.best().cost);
    }
}

//! Physical optimization: shipping and local strategies.
//!
//! For each logical operator order, this module plays the role of the
//! "existing cost-based optimizer" of Section 7.1: it "selects data
//! shipping and execution strategies such as broadcasting and hybrid-hash
//! joins", reusing **interesting properties** (partitionings) bottom-up —
//! e.g. the Q15 discussion in Section 7.3 where "since Match operates on
//! the same key as Reduce, the partitioning property remains and can be
//! reused".
//!
//! Strategies:
//!
//! * shipping: [`Ship::Forward`] (stay local), [`Ship::Partition`] (hash
//!   repartition by key), [`Ship::Broadcast`] (replicate to all workers);
//! * local: pipelined Map, hash or sort grouping, hash join with explicit
//!   build side, sort-merge join, block-nested-loop cross, sort-merge
//!   co-group.
//!
//! Selection keeps, per subtree, the cheapest candidate for every distinct
//! output partitioning, so a more expensive child plan that delivers a
//! reusable partitioning can win globally.
//!
//! # One memo shared across orders
//!
//! Enumerated orders differ only near the moved operators, so they share
//! most subtrees (the served benchmark's 4-source join chain has 1,105
//! orders of 12 nodes, but only 3,883 distinct subtrees). [`crate::Optimizer`]
//! therefore costs all orders of one call through a single memo, much like
//! Algorithm 1 keys its memo table by a sub-flow's canonical form:
//!
//! * **Key.** An entry is keyed by its node kind and its children's entry
//!   ids, so structurally equal subtrees share one entry; an `Arc`-shared
//!   node found again skips even that lookup by pointer.
//! * **Entry.** Each entry holds its [`Est`], derived once from its
//!   children's with [`crate::cost::derive`], and its pruned candidates in
//!   ascending cost order, stored as one exact-size slice.
//! * **Candidate.** A candidate is a small `Copy` value with no heap data:
//!   its cost, its output partitioning as an interned key id, its ships
//!   inline (keys interned too), its local strategy and combine flag, and
//!   the candidate index it uses in each child entry.
//! * **Lazy trees.** A [`PhysNode`] tree is built only on demand, by
//!   walking the plan's own nodes, so every `logical` pointer is the
//!   plan's. `Optimizer::optimize` builds one per ranked order;
//!   `Optimizer::best` builds only the winner's.
//!
//! Costs are the same f64 operations in the same order as a per-plan
//! recursion would do, and pruning is a stable sort in which the first
//! candidate of each partitioning wins, so each order's cost and tree do
//! not depend on which other orders shared the memo. [`best_physical`] is
//! a memo over one plan.

use crate::cost::{derive, CostWeights, Est};
use crate::props::PropTable;
use std::sync::Arc;
use strato_dataflow::{NodeKind, Pact, Plan, PlanNode};
use strato_record::hash::FxHashMap;
use strato_record::AttrId;

/// A shipping strategy for one operator input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ship {
    /// Keep records on their current worker.
    Forward,
    /// Hash-repartition by the given global attributes.
    Partition(Vec<AttrId>),
    /// Replicate every record to every worker.
    Broadcast,
}

/// A local execution strategy for one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalStrategy {
    /// Pipelined record-at-a-time execution (Map).
    Pipe,
    /// Build an in-memory hash table of groups.
    HashGroup,
    /// Sort by key, then group.
    SortGroup,
    /// Streaming hash pre-aggregation: fold one partial record per key as
    /// batches arrive, then invoke the UDF once per partial. Legal only
    /// for *combinable* reduces (see `Plan::combinable_reduce`); holds one
    /// record per distinct key instead of buffering the whole input.
    StreamAgg,
    /// Hash join building on the left input.
    HashJoinBuildLeft,
    /// Hash join building on the right input.
    HashJoinBuildRight,
    /// Sort both inputs and merge.
    SortMergeJoin,
    /// Block-nested-loop Cartesian product.
    BlockNestedLoop,
    /// Sort-merge co-grouping.
    CoGroupSortMerge,
}

impl LocalStrategy {
    /// The algorithm a PACT runs when no physical optimization chose one —
    /// the lowering hook the execution runtime's compile step uses for
    /// logical (oracle) plans.
    pub fn default_for(pact: &Pact) -> LocalStrategy {
        match pact {
            Pact::Map => LocalStrategy::Pipe,
            Pact::Reduce { .. } => LocalStrategy::HashGroup,
            Pact::Match { .. } => LocalStrategy::HashJoinBuildLeft,
            Pact::Cross => LocalStrategy::BlockNestedLoop,
            Pact::CoGroup { .. } => LocalStrategy::CoGroupSortMerge,
        }
    }
}

/// A physical plan node.
#[derive(Debug, Clone)]
pub struct PhysNode {
    /// The logical node this realizes.
    pub logical: Arc<PlanNode>,
    /// Ship strategy per input (empty for sources).
    pub ships: Vec<Ship>,
    /// Local strategy.
    pub local: LocalStrategy,
    /// Insert a pre-ship combiner stage ahead of input 0: partial
    /// aggregation on the producing partitions before the Partition ship.
    /// Only ever set on combinable Partition-shipped Reduces.
    pub combine: bool,
    /// Children.
    pub children: Vec<PhysNode>,
    /// Output estimate.
    pub est: Est,
    /// Cumulative cost of this subtree.
    pub cost: f64,
}

impl PhysNode {
    /// Renders the physical plan as an indented tree.
    pub fn render(&self, plan: &Plan, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self.logical.kind {
            NodeKind::Source(s) => {
                out.push_str(&format!("scan {}\n", plan.ctx.sources[s].name));
            }
            NodeKind::Op(o) => {
                let op = &plan.ctx.ops[o];
                let ships: Vec<String> = self
                    .ships
                    .iter()
                    .map(|s| match s {
                        Ship::Forward => "fwd".to_string(),
                        Ship::Partition(k) => format!("part({})", k.len()),
                        Ship::Broadcast => "bcast".to_string(),
                    })
                    .collect();
                out.push_str(&format!(
                    "{} [{} | {:?}{} | ships {}] rows≈{:.0}\n",
                    op.name,
                    op.pact.kind_name(),
                    self.local,
                    if self.combine { " +combine" } else { "" },
                    ships.join(","),
                    self.est.rows
                ));
            }
        }
        for c in &self.children {
            c.render(plan, depth + 1, out);
        }
    }
}

/// A fully costed physical plan for one logical order.
#[derive(Debug, Clone)]
pub struct PhysPlan {
    /// Root of the physical tree.
    pub root: PhysNode,
    /// Total estimated cost.
    pub total_cost: f64,
}

impl PhysPlan {
    /// Renders the plan.
    pub fn render(&self, plan: &Plan) -> String {
        let mut s = String::new();
        self.root.render(plan, 0, &mut s);
        s
    }
}

/// Chooses the cheapest physical realization of a logical plan: a memo
/// costing just this plan. [`crate::Optimizer`] shares one memo across all
/// enumerated orders instead.
pub fn best_physical(
    plan: &Plan,
    props: &PropTable,
    weights: &CostWeights,
    dop: usize,
) -> PhysPlan {
    let mut memo = PhysMemo::new(props, weights, dop);
    memo.cost(plan);
    memo.build(plan)
}

/// Index of a distinct subtree in a [`PhysMemo`].
type EntryId = u32;

/// An interned partitioning key: an index into [`PhysMemo`]'s key table,
/// or [`NO_KEY`] for "no known partitioning". Two ids are equal exactly
/// when their attribute lists are.
type KeyId = u32;

/// The partitioning of a candidate whose output has none.
const NO_KEY: KeyId = KeyId::MAX;

/// A [`Ship`] whose key is interned, so candidates stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackedShip {
    Forward,
    Partition(KeyId),
    Broadcast,
}

/// One physical realization of a memo entry: the choices made at this node,
/// the cumulative cost of the subtree and the partitioning its output
/// satisfies. Children are candidate indices into the children's entries;
/// only the first `arity` slots of `ships` and `kids` are meaningful.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    cost: f64,
    part: KeyId,
    ships: [PackedShip; 2],
    local: LocalStrategy,
    combine: bool,
    kids: [u32; 2],
}

/// One distinct subtree: its estimate, its children's entries and its
/// pruned candidates in ascending cost order (so `cands[0]` is the best).
#[derive(Debug)]
struct Entry {
    est: Est,
    kids: [EntryId; 2],
    cands: Box<[Candidate]>,
}

/// The physical-selection memo shared by every order of one optimization.
///
/// Enumerated orders share most of their subtrees, so each distinct
/// subtree is costed once: an entry is keyed by its node kind and its
/// children's entries, and `Arc`-shared nodes skip even that lookup by
/// pointer. The borrow of `'p` keeps every costed node alive, so a pointer
/// key cannot be reused by another node while the memo exists. All plans
/// costed in one memo must share one `PlanCtx` (enumerated orders do).
#[derive(Debug)]
pub(crate) struct PhysMemo<'p> {
    props: &'p PropTable,
    w: &'p CostWeights,
    dop: usize,
    entries: Vec<Entry>,
    by_shape: FxHashMap<(NodeKind, [EntryId; 2]), EntryId>,
    by_ptr: FxHashMap<*const PlanNode, EntryId>,
    keys: Vec<Vec<AttrId>>,
    /// Unpruned candidates of the entry being costed, reused across entries.
    scratch: Vec<Candidate>,
}

impl<'p> PhysMemo<'p> {
    /// An empty memo costing with the given properties, weights and DOP.
    pub(crate) fn new(props: &'p PropTable, w: &'p CostWeights, dop: usize) -> Self {
        PhysMemo {
            props,
            w,
            dop,
            entries: Vec::new(),
            by_shape: FxHashMap::default(),
            by_ptr: FxHashMap::default(),
            keys: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Costs every not-yet-seen subtree of `plan` and returns the cost of
    /// its cheapest physical realization.
    pub(crate) fn cost(&mut self, plan: &'p Plan) -> f64 {
        let id = self.node(plan, &plan.root);
        self.entries[id as usize].cands[0].cost
    }

    /// Number of distinct subtrees costed so far.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Builds the cheapest physical tree of a plan already passed to
    /// [`PhysMemo::cost`], walking the plan's own nodes.
    pub(crate) fn build(&self, plan: &Plan) -> PhysPlan {
        let id = self.by_ptr[&Arc::as_ptr(&plan.root)];
        let root = self.materialize(&plan.root, id, 0);
        PhysPlan {
            total_cost: root.cost,
            root,
        }
    }

    fn materialize(&self, node: &Arc<PlanNode>, id: EntryId, cand: u32) -> PhysNode {
        let e = &self.entries[id as usize];
        let c = e.cands[cand as usize];
        let arity = node.children.len();
        PhysNode {
            logical: node.clone(),
            ships: c.ships[..arity]
                .iter()
                .map(|s| match *s {
                    PackedShip::Forward => Ship::Forward,
                    PackedShip::Partition(k) => Ship::Partition(self.keys[k as usize].clone()),
                    PackedShip::Broadcast => Ship::Broadcast,
                })
                .collect(),
            local: c.local,
            combine: c.combine,
            children: node
                .children
                .iter()
                .enumerate()
                .map(|(i, child)| self.materialize(child, e.kids[i], c.kids[i]))
                .collect(),
            est: e.est,
            cost: c.cost,
        }
    }

    /// The entry of `node`, costing it (and, first, its children) if its
    /// shape is new.
    fn node(&mut self, plan: &'p Plan, node: &'p Arc<PlanNode>) -> EntryId {
        let ptr = Arc::as_ptr(node);
        if let Some(&id) = self.by_ptr.get(&ptr) {
            return id;
        }
        let mut kids = [EntryId::MAX; 2];
        for (k, child) in kids.iter_mut().zip(&node.children) {
            *k = self.node(plan, child);
        }
        let id = match self.by_shape.get(&(node.kind, kids)) {
            Some(&id) => id,
            None => {
                let entry = self.entry(plan, node, kids);
                let id = self.entries.len() as EntryId;
                self.entries.push(entry);
                self.by_shape.insert((node.kind, kids), id);
                id
            }
        };
        self.by_ptr.insert(ptr, id);
        id
    }

    fn intern(&mut self, key: &[AttrId]) -> KeyId {
        match self.keys.iter().position(|k| k[..] == *key) {
            Some(i) => i as KeyId,
            None => {
                self.keys.push(key.to_vec());
                (self.keys.len() - 1) as KeyId
            }
        }
    }

    /// Derives a new entry's estimate and its pruned candidates from its
    /// children's entries.
    fn entry(&mut self, plan: &Plan, node: &PlanNode, kids: [EntryId; 2]) -> Entry {
        let arity = node.children.len();
        let mut inputs = [Est {
            rows: 0.0,
            bytes_per_row: 0.0,
            calls: 0.0,
        }; 2];
        for (input, &k) in inputs.iter_mut().zip(&kids[..arity]) {
            *input = self.entries[k as usize].est;
        }
        let est = derive(plan, node.kind, &inputs[..arity]);
        let (w, dop) = (self.w, self.dop);
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        let fwd = [PackedShip::Forward; 2];
        match node.kind {
            NodeKind::Source(_) => {
                // Scan cost: every plan reads every source once (the paper
                // notes all plans do full scans), charged as disk IO.
                out.push(Candidate {
                    cost: est.bytes() * w.disk,
                    part: NO_KEY,
                    ships: fwd,
                    local: LocalStrategy::Pipe,
                    combine: false,
                    kids: [0; 2],
                });
            }
            NodeKind::Op(o) => {
                let op = &plan.ctx.ops[o];
                let udf_cpu = est.calls * op.hints.cpu_per_call * w.cpu;
                let key_ids = [
                    op.key_attrs.first().map_or(NO_KEY, |k| self.intern(k)),
                    op.key_attrs.get(1).map_or(NO_KEY, |k| self.intern(k)),
                ];
                let keys = &self.keys;
                let satisfies = |part: KeyId, key: &[AttrId]| {
                    part != NO_KEY && {
                        let p = &keys[part as usize];
                        !p.is_empty() && p.iter().all(|a| key.contains(a))
                    }
                };
                let cands = |i: usize| &*self.entries[kids[i] as usize].cands;
                match &op.pact {
                    Pact::Map => {
                        let write = &self.props.get(o).write;
                        for (ci, c) in cands(0).iter().enumerate() {
                            // A Map that writes partition attributes
                            // destroys the property.
                            let keeps = c.part != NO_KEY
                                && keys[c.part as usize].iter().all(|a| !write.contains(*a));
                            out.push(Candidate {
                                cost: c.cost + udf_cpu,
                                part: if keeps { c.part } else { NO_KEY },
                                ships: fwd,
                                local: LocalStrategy::Pipe,
                                combine: false,
                                kids: [ci as u32, 0],
                            });
                        }
                    }
                    Pact::Reduce { .. } => {
                        let key = &op.key_attrs[0];
                        let combinable = plan.combinable_reduce(node);
                        let in_est = inputs[0];
                        let groups = crate::cost::reduce_groups(op, in_est.rows);
                        for (ci, c) in cands(0).iter().enumerate() {
                            let ship = if satisfies(c.part, key) {
                                PackedShip::Forward
                            } else {
                                PackedShip::Partition(key_ids[0])
                            };
                            for combine in [false, true] {
                                // A pre-ship combiner only exists for
                                // combinable, Partition-shipped reduces.
                                if combine
                                    && !(combinable && matches!(ship, PackedShip::Partition(_)))
                                {
                                    continue;
                                }
                                // Combining caps the shipped volume at one
                                // partial per key per producing partition —
                                // the shipped-bytes reduction that lets plan
                                // enumeration prefer combined plans.
                                let shipped_est = if combine {
                                    Est {
                                        rows: (groups * dop as f64).min(in_est.rows),
                                        ..in_est
                                    }
                                } else {
                                    in_est
                                };
                                // The combiner's own work: a hash probe and
                                // fold per input record on the producing side.
                                let combiner_cpu = if combine {
                                    0.5 * in_est.rows * w.cpu
                                } else {
                                    0.0
                                };
                                let base = c.cost
                                    + ship_cost(ship, &shipped_est, w, dop)
                                    + udf_cpu
                                    + combiner_cpu;
                                let locals = [
                                    (LocalStrategy::HashGroup, hash_build_cost(&shipped_est, w)),
                                    (LocalStrategy::SortGroup, sort_cost(&shipped_est, w)),
                                    (
                                        LocalStrategy::StreamAgg,
                                        stream_agg_cost(&shipped_est, groups, w),
                                    ),
                                ];
                                let n_locals = if combinable { 3 } else { 2 };
                                for &(local, lcost) in &locals[..n_locals] {
                                    out.push(Candidate {
                                        cost: base + lcost,
                                        part: key_ids[0],
                                        ships: [ship, PackedShip::Forward],
                                        local,
                                        combine,
                                        kids: [ci as u32, 0],
                                    });
                                }
                            }
                        }
                    }
                    Pact::Match { .. } => {
                        let (kl, kr) = (&op.key_attrs[0], &op.key_attrs[1]);
                        let (kl_id, kr_id) = (key_ids[0], key_ids[1]);
                        let (le, re) = (inputs[0], inputs[1]);
                        for (li, lc) in cands(0).iter().enumerate() {
                            for (ri, rc) in cands(1).iter().enumerate() {
                                let kids = [li as u32, ri as u32];
                                // (a) Repartition both (with reuse).
                                let ship_l = if satisfies(lc.part, kl) {
                                    PackedShip::Forward
                                } else {
                                    PackedShip::Partition(kl_id)
                                };
                                let ship_r = if satisfies(rc.part, kr) {
                                    PackedShip::Forward
                                } else {
                                    PackedShip::Partition(kr_id)
                                };
                                // Reuse is only sound if both sides end up
                                // co-partitioned; forwarding both requires
                                // that their partitionings correspond — we
                                // only reuse when the other side is
                                // repartitioned on the full key or both were
                                // partitioned identically by position.
                                // Conservative: if both would forward,
                                // repartition the bigger-keyed side.
                                let (ship_l, ship_r) = match (ship_l, ship_r) {
                                    (PackedShip::Forward, PackedShip::Forward) => {
                                        // Require exact correspondence of the
                                        // partition keys to the join keys.
                                        let exact_l = lc.part == kl_id;
                                        let exact_r = rc.part == kr_id;
                                        if exact_l && exact_r {
                                            (PackedShip::Forward, PackedShip::Forward)
                                        } else if exact_l {
                                            (PackedShip::Forward, PackedShip::Partition(kr_id))
                                        } else {
                                            (PackedShip::Partition(kl_id), ship_r)
                                        }
                                    }
                                    ships => ships,
                                };
                                let ship_cost_ab =
                                    ship_cost(ship_l, &le, w, dop) + ship_cost(ship_r, &re, w, dop);
                                let (build, bcost) = if le.bytes() <= re.bytes() {
                                    (LocalStrategy::HashJoinBuildLeft, hash_build_cost(&le, w))
                                } else {
                                    (LocalStrategy::HashJoinBuildRight, hash_build_cost(&re, w))
                                };
                                let smj = sort_cost(&le, w) + sort_cost(&re, w);
                                let base = lc.cost + rc.cost + udf_cpu;
                                for (local, lcost2) in
                                    [(build, bcost), (LocalStrategy::SortMergeJoin, smj)]
                                {
                                    for part in [kl_id, kr_id] {
                                        out.push(Candidate {
                                            cost: base + ship_cost_ab + lcost2,
                                            part,
                                            ships: [ship_l, ship_r],
                                            local,
                                            combine: false,
                                            kids,
                                        });
                                    }
                                }
                                // (b) Broadcast the smaller side; the larger
                                // side's partitioning survives.
                                let (bc_side, bc_est, part) = if le.bytes() <= re.bytes() {
                                    (0, le, rc.part)
                                } else {
                                    (1, re, lc.part)
                                };
                                let mut ships = fwd;
                                ships[bc_side] = PackedShip::Broadcast;
                                let bcost2 = ship_cost(PackedShip::Broadcast, &bc_est, w, dop)
                                    + hash_build_cost(&bc_est, w) * dop as f64;
                                let local = if bc_side == 0 {
                                    LocalStrategy::HashJoinBuildLeft
                                } else {
                                    LocalStrategy::HashJoinBuildRight
                                };
                                out.push(Candidate {
                                    cost: lc.cost + rc.cost + udf_cpu + bcost2,
                                    part,
                                    ships,
                                    local,
                                    combine: false,
                                    kids,
                                });
                            }
                        }
                    }
                    Pact::Cross => {
                        let (le, re) = (inputs[0], inputs[1]);
                        for (li, lc) in cands(0).iter().enumerate() {
                            for (ri, rc) in cands(1).iter().enumerate() {
                                let (bc_side, bc_est, part) = if le.bytes() <= re.bytes() {
                                    (0, le, rc.part)
                                } else {
                                    (1, re, lc.part)
                                };
                                let mut ships = fwd;
                                ships[bc_side] = PackedShip::Broadcast;
                                out.push(Candidate {
                                    cost: lc.cost
                                        + rc.cost
                                        + udf_cpu
                                        + ship_cost(PackedShip::Broadcast, &bc_est, w, dop)
                                        + est.calls * w.cpu * 0.1,
                                    part,
                                    ships,
                                    local: LocalStrategy::BlockNestedLoop,
                                    combine: false,
                                    kids: [li as u32, ri as u32],
                                });
                            }
                        }
                    }
                    Pact::CoGroup { .. } => {
                        let (le, re) = (inputs[0], inputs[1]);
                        let ship_l = PackedShip::Partition(key_ids[0]);
                        let ship_r = PackedShip::Partition(key_ids[1]);
                        for (li, lc) in cands(0).iter().enumerate() {
                            for (ri, rc) in cands(1).iter().enumerate() {
                                out.push(Candidate {
                                    cost: lc.cost
                                        + rc.cost
                                        + udf_cpu
                                        + ship_cost(ship_l, &le, w, dop)
                                        + ship_cost(ship_r, &re, w, dop)
                                        + sort_cost(&le, w)
                                        + sort_cost(&re, w),
                                    part: key_ids[0],
                                    ships: [ship_l, ship_r],
                                    local: LocalStrategy::CoGroupSortMerge,
                                    combine: false,
                                    kids: [li as u32, ri as u32],
                                });
                            }
                        }
                    }
                }
            }
        }
        let cands = prune(&mut out);
        self.scratch = out;
        Entry { est, kids, cands }
    }
}

/// Spill charge: bytes beyond the memory budget cost disk IO (write+read).
fn spill(bytes: f64, w: &CostWeights) -> f64 {
    if bytes > w.mem_budget {
        2.0 * (bytes - w.mem_budget) * w.disk
    } else {
        0.0
    }
}

fn sort_cost(e: &Est, w: &CostWeights) -> f64 {
    let n = e.rows.max(2.0);
    0.3 * n * n.log2() * w.cpu + spill(e.bytes(), w)
}

fn hash_build_cost(e: &Est, w: &CostWeights) -> f64 {
    1.2 * e.rows * w.cpu + spill(e.bytes(), w)
}

/// Streaming pre-aggregation: one hash probe + fold per record, no
/// buffering or re-grouping pass, and the memory (hence spill) footprint
/// is one partial per distinct key rather than the whole input.
fn stream_agg_cost(e: &Est, groups: f64, w: &CostWeights) -> f64 {
    e.rows * w.cpu + spill(groups * e.bytes_per_row, w)
}

fn ship_cost(ship: PackedShip, e: &Est, w: &CostWeights, dop: usize) -> f64 {
    match ship {
        PackedShip::Forward => 0.0,
        // (dop-1)/dop of the data crosses the wire; approximate with 1.
        PackedShip::Partition(_) => e.bytes() * w.net,
        PackedShip::Broadcast => e.bytes() * w.net * dop as f64,
    }
}

/// Keeps only the cheapest candidate per distinct partitioning, in
/// ascending cost order: a stable sort, then the first candidate of each
/// partitioning wins (so ties go to the earlier-generated candidate).
fn prune(cands: &mut [Candidate]) -> Box<[Candidate]> {
    cands.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    let mut kept = 0;
    for i in 0..cands.len() {
        let c = cands[i];
        if cands[..kept].iter().all(|k| k.part != c.part) {
            cands[kept] = c;
            kept += 1;
        }
    }
    cands[..kept].into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_dataflow::{CostHints, ProgramBuilder, PropertyMode, SourceDef};
    use strato_ir::{FuncBuilder, Function, UdfKind};

    fn identity_map(w: usize) -> Function {
        let mut b = FuncBuilder::new("id", UdfKind::Map, vec![w]);
        let or = b.copy_input(0);
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    fn group_first(w: usize) -> Function {
        let mut b = FuncBuilder::new("first", UdfKind::Group, vec![w]);
        let it = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it, nil);
        let or = b.copy(first);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    }

    fn join_udf(l: usize, r: usize) -> Function {
        let mut b = FuncBuilder::new("join", UdfKind::Pair, vec![l, r]);
        let or = b.concat_inputs();
        b.emit(or);
        b.ret();
        b.finish().unwrap()
    }

    fn phys_of(plan: &Plan) -> PhysPlan {
        let props = PropTable::build(plan, PropertyMode::Sca);
        best_physical(plan, &props, &CostWeights::default(), 8)
    }

    #[test]
    fn broadcast_wins_for_tiny_build_side() {
        let mut p = ProgramBuilder::new();
        let big = p.source(SourceDef::new("big", &["k", "v"], 1_000_000).with_bytes_per_row(64));
        let tiny = p.source(SourceDef::new("tiny", &["k"], 10).with_bytes_per_row(8));
        let j = p.match_(
            "j",
            &[0],
            &[0],
            join_udf(2, 1),
            CostHints::default().with_distinct_keys(10),
            big,
            tiny,
        );
        let plan = p.finish(j).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        assert_eq!(phys.root.ships[1], Ship::Broadcast);
        assert_eq!(phys.root.ships[0], Ship::Forward);
        assert_eq!(phys.root.local, LocalStrategy::HashJoinBuildRight);
    }

    #[test]
    fn repartition_wins_for_balanced_sides() {
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k", "v"], 500_000).with_bytes_per_row(64));
        let r = p.source(SourceDef::new("r", &["k", "w"], 500_000).with_bytes_per_row(64));
        let j = p.match_(
            "j",
            &[0],
            &[0],
            join_udf(2, 2),
            CostHints::default().with_distinct_keys(100_000),
            l,
            r,
        );
        let plan = p.finish(j).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        assert!(matches!(phys.root.ships[0], Ship::Partition(_)));
        assert!(matches!(phys.root.ships[1], Ship::Partition(_)));
    }

    #[test]
    fn reduce_reuses_match_partitioning() {
        // Section 7.3 / Q15 flavour: Match on k, then Reduce on the same k:
        // the reduce's input must be Forward (partitioning reuse).
        let mut p = ProgramBuilder::new();
        let l = p.source(SourceDef::new("l", &["k", "v"], 400_000).with_bytes_per_row(64));
        let r = p.source(SourceDef::new("r", &["k2"], 300_000).with_bytes_per_row(64));
        let j = p.match_(
            "j",
            &[0],
            &[0],
            join_udf(2, 1),
            CostHints::default().with_distinct_keys(50_000),
            l,
            r,
        );
        let g = p.reduce(
            "g",
            &[0],
            group_first(3),
            CostHints::default().with_distinct_keys(50_000),
            j,
        );
        let plan = p.finish(g).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        assert_eq!(
            phys.root.ships[0],
            Ship::Forward,
            "reduce must reuse the join's partitioning:\n{}",
            phys.render(&plan)
        );
    }

    #[test]
    fn map_is_pipelined_for_free() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["a"], 100));
        let m = p.map("id", identity_map(1), CostHints::default(), s);
        let plan = p.finish(m).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        assert_eq!(phys.root.ships[0], Ship::Forward);
        assert_eq!(phys.root.local, LocalStrategy::Pipe);
    }

    #[test]
    fn costs_are_positive_and_monotone_with_size() {
        let cost_for = |rows: u64| {
            let mut p = ProgramBuilder::new();
            let s = p.source(SourceDef::new("s", &["k"], rows).with_bytes_per_row(32));
            let g = p.reduce("g", &[0], group_first(1), CostHints::default(), s);
            let plan = p.finish(g).unwrap().bind().unwrap();
            phys_of(&plan).total_cost
        };
        let small = cost_for(1_000);
        let big = cost_for(1_000_000);
        assert!(small > 0.0);
        assert!(big > small);
    }

    /// In-place sum over `field` — combinable (decomposable) by SCA.
    fn sum_inplace(w: usize, field: usize) -> Function {
        use strato_ir::BinOp;
        let mut b = FuncBuilder::new("sum_ip", UdfKind::Group, vec![w]);
        let acc = b.konst(0i64);
        let it = b.iter_open(0);
        let done = b.new_label();
        let head = b.new_label();
        b.place(head);
        let r = b.iter_next(it, done);
        let v = b.get(r, field);
        b.bin_into(acc, BinOp::Add, acc, v);
        b.jump(head);
        b.place(done);
        let it2 = b.iter_open(0);
        let nil = b.new_label();
        let first = b.iter_next(it2, nil);
        let or = b.copy(first);
        b.set(or, field, acc);
        b.emit(or);
        b.place(nil);
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn combinable_reduce_prefers_combiner_and_stream_agg() {
        // Duplicate-heavy grouped aggregate: shipping one partial per key
        // per partition beats shipping 200k raw rows, so the cost model
        // must pick the combined plan — and the streaming local strategy.
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 200_000).with_bytes_per_row(40));
        let g = p.reduce(
            "agg",
            &[0],
            sum_inplace(2, 1),
            CostHints::default().with_distinct_keys(64),
            s,
        );
        let plan = p.finish(g).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        assert!(phys.root.combine, "{}", phys.render(&plan));
        assert_eq!(phys.root.local, LocalStrategy::StreamAgg);
        assert!(matches!(phys.root.ships[0], Ship::Partition(_)));
        assert!(phys.render(&plan).contains("+combine"));
    }

    #[test]
    fn combined_plan_is_strictly_cheaper_on_duplicate_heavy_input() {
        // Same shape, combinable vs not (append-style sum): the combinable
        // one must cost less because the ship volume collapses.
        let cost_with = |udf: Function| {
            let mut p = ProgramBuilder::new();
            let s = p.source(SourceDef::new("s", &["k", "v"], 200_000).with_bytes_per_row(40));
            let g = p.reduce(
                "agg",
                &[0],
                udf,
                CostHints::default().with_distinct_keys(64),
                s,
            );
            let plan = p.finish(g).unwrap().bind().unwrap();
            phys_of(&plan).total_cost
        };
        let combined = cost_with(sum_inplace(2, 1));
        let uncombined = cost_with(group_first(2));
        assert!(
            combined < uncombined,
            "combined {combined} vs uncombined {uncombined}"
        );
    }

    #[test]
    fn non_combinable_reduce_never_combines() {
        // group_first passes a non-key payload through: not decomposable.
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k", "v"], 200_000).with_bytes_per_row(40));
        let g = p.reduce(
            "agg",
            &[0],
            group_first(2),
            CostHints::default().with_distinct_keys(64),
            s,
        );
        let plan = p.finish(g).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        assert!(!phys.root.combine);
        assert_ne!(phys.root.local, LocalStrategy::StreamAgg);
    }

    #[test]
    fn spill_charge_is_zero_within_budget_and_grows_beyond_it() {
        // Parity with the execution engine: the runtime spills exactly when
        // buffered state exceeds `mem_budget` (see `ExecOptions::mem_budget`,
        // whose default is the same `DEFAULT_MEM_BUDGET_BYTES` constant), so
        // the cost model must charge nothing at or below the budget and a
        // monotone write+read disk penalty above it.
        let w = CostWeights::default();
        assert_eq!(w.mem_budget, crate::cost::DEFAULT_MEM_BUDGET_BYTES as f64);
        assert_eq!(spill(0.0, &w), 0.0);
        assert_eq!(spill(w.mem_budget, &w), 0.0);
        let just_over = spill(w.mem_budget + 1024.0, &w);
        let far_over = spill(w.mem_budget * 3.0, &w);
        assert!(just_over > 0.0);
        assert!(far_over > just_over, "spill charge must be monotone");
        // Write + read: every byte beyond the budget is charged twice at the
        // disk rate.
        assert_eq!(just_over, 2.0 * 1024.0 * w.disk);
    }

    #[test]
    fn render_mentions_strategies() {
        let mut p = ProgramBuilder::new();
        let s = p.source(SourceDef::new("s", &["k"], 1000));
        let g = p.reduce("g", &[0], group_first(1), CostHints::default(), s);
        let plan = p.finish(g).unwrap().bind().unwrap();
        let phys = phys_of(&plan);
        let txt = phys.render(&plan);
        assert!(txt.contains("g [Reduce"), "{txt}");
        assert!(txt.contains("scan s"), "{txt}");
    }
}

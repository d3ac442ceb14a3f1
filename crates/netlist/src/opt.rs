//! Logic optimization: constant folding, identity simplification, common
//! sub-expression elimination and dead-gate removal.
//!
//! This pass is what turns a *bespoke* netlist (trained thresholds and
//! coefficients hard-wired as [`Signal::Const`] inputs) into the radically
//! smaller circuit the paper reports: "now that the actual trained
//! threshold values are hardwired, the comparators have only one variable
//! input which greatly simplifies overall design" (§IV-A). Conventional
//! architectures pass through nearly unchanged (their operands arrive from
//! registers, so nothing folds), which is exactly the asymmetry the
//! bespoke-vs-conventional comparison measures.
//!
//! # Engine
//!
//! The optimizer is an incremental worklist engine rather than a global
//! fixpoint loop:
//!
//! * a **union-find** over [`NetId`]s (path-compressed) records every
//!   alias a rewrite creates, so substitution chains cost amortized O(α);
//! * a **reader index** re-enqueues only the readers of a changed net
//!   instead of rescanning the module: one CSR array over the input
//!   module's gate pins, plus per-net lists of the readers rewrites add;
//! * a **structural-hash table** (strash) merges structurally identical
//!   gates the moment their inputs canonicalize to the same key, which is
//!   CSE without a separate pass. The key is a fixed-width `Copy` value
//!   (kind, normalized [`Pins`], init) under a multiply-rotate hash, so
//!   probing allocates nothing;
//! * dead-gate elimination runs **once** at the end as a reachability
//!   sweep from the output ports.
//!
//! The worklist drains when no rewrite is applicable anywhere — a true
//! fixpoint, with no iteration cap.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::Instant;

use pdk::CellKind;
use serde::Serialize;

use crate::ir::{Gate, Module, NetId, Pins, Signal};
use crate::levels::drivers;

/// Statistics from one [`optimize_with_stats`] call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OptStats {
    /// Gates in the input module.
    pub gates_in: usize,
    /// Gates in the optimized module.
    pub gates_out: usize,
    /// Gates folded away by aliasing their output to another signal
    /// (constant folds, identities, absorption).
    pub aliased: usize,
    /// Gates rewritten in place to a cheaper kind (e.g. `nand(a,a)` to an
    /// inverter, mux collapses, redundancy).
    pub rewritten: usize,
    /// Gates merged into a structural twin by the hash-consing table.
    pub merged: usize,
    /// Gates removed by the final dead-code sweep (unobservable logic,
    /// including gates orphaned by the rewrites above).
    pub dead: usize,
    /// Wall-clock seconds of the whole optimization.
    pub seconds: f64,
}

impl OptStats {
    /// Total rewrite-rule applications (aliases + in-place + merges).
    pub fn rewrites(&self) -> usize {
        self.aliased + self.rewritten + self.merged
    }
}

/// Process-wide optimizer totals over every [`optimize_with_stats`] call,
/// on all threads: the `netlist.opt.*` counters of the [`obs`] report.
static OPT_CALLS: obs::Counter = obs::Counter::new("netlist.opt.calls");
static OPT_GATES_IN: obs::Counter = obs::Counter::new("netlist.opt.gates_in");
static OPT_GATES_OUT: obs::Counter = obs::Counter::new("netlist.opt.gates_out");
static OPT_REWRITES: obs::Counter = obs::Counter::new("netlist.opt.rewrites");
static OPT_ALIASED: obs::Counter = obs::Counter::new("netlist.opt.aliased");
static OPT_REWRITTEN: obs::Counter = obs::Counter::new("netlist.opt.rewritten");
static OPT_MERGED: obs::Counter = obs::Counter::new("netlist.opt.merged");
static OPT_DEAD: obs::Counter = obs::Counter::new("netlist.opt.dead");
static OPT_NS: obs::Counter = obs::Counter::new("netlist.opt.ns");

/// Optimizes `module` to a fixpoint and returns the result.
///
/// Applies, until no rewrite is applicable: constant folding and boolean
/// identities (including double-inverter and inverted-pair rules), CSE over
/// structurally identical gates, and dead-gate elimination seeded from the
/// output ports.
///
/// ```
/// use netlist::builder::NetlistBuilder;
/// use netlist::ir::Signal;
/// use netlist::opt::optimize;
///
/// let mut b = NetlistBuilder::new("t");
/// let x = b.input("x", 1);
/// let y = b.and(x[0], Signal::ONE); // folds to x
/// let z = b.or(y, Signal::ZERO);    // folds to x
/// b.output("z", &[z]);
/// let m = optimize(&b.finish());
/// assert_eq!(m.gate_count(), 0);
/// ```
pub fn optimize(module: &Module) -> Module {
    optimize_with_stats(module).0
}

/// Like [`optimize`], additionally returning per-call [`OptStats`].
pub fn optimize_with_stats(module: &Module) -> (Module, OptStats) {
    let _span = obs::span("netlist.optimize");
    let start = Instant::now();
    let mut engine = Engine::new(module);
    engine.run();
    let (m, dead) = engine.finish(module);
    let stats = OptStats {
        gates_in: module.gate_count(),
        gates_out: m.gate_count(),
        aliased: engine.aliased,
        rewritten: engine.rewritten,
        merged: engine.merged,
        dead,
        seconds: start.elapsed().as_secs_f64(),
    };
    OPT_CALLS.incr();
    OPT_GATES_IN.add(stats.gates_in as u64);
    OPT_GATES_OUT.add(stats.gates_out as u64);
    OPT_REWRITES.add(stats.rewrites() as u64);
    OPT_ALIASED.add(stats.aliased as u64);
    OPT_REWRITTEN.add(stats.rewritten as u64);
    OPT_MERGED.add(stats.merged as u64);
    OPT_DEAD.add(stats.dead as u64);
    OPT_NS.add((stats.seconds * 1e9) as u64);
    debug_assert!(m.validate().is_ok(), "optimizer produced invalid module");
    #[cfg(debug_assertions)]
    assert_fixpoint(&m);
    (m, stats)
}

enum Action {
    Keep,
    /// Replace the gate's output everywhere with this signal; delete gate.
    Alias(Signal),
    /// Rewrite the gate in place.
    Rewrite(CellKind, Pins),
    /// Rewrite into `kind(inv(extra), other)`: used for mux collapses that
    /// need one inverted operand.
    RewriteInverted(CellKind, Signal, Signal),
}

/// Canonical ordering word for strash input normalization:
/// `Const(false) < Const(true) < Net(n)`, nets by index.
fn sig_key(s: Signal) -> u64 {
    match s {
        Signal::Const(b) => u64::from(b),
        Signal::Net(n) => 2 + n.index() as u64,
    }
}

/// Structural hash key of a gate: kind, normalized inputs, DFF init.
#[derive(Clone, Copy, PartialEq, Eq)]
struct CseKey(CellKind, Pins, bool);

impl Hash for CseKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64((self.0 as u64) << 8 | (self.1.len() as u64) << 1 | u64::from(self.2));
        self.1.iter().for_each(|&s| h.write_u64(sig_key(s)));
    }
}

/// One multiply-rotate step per word (the FxHash mix). Strash keys are
/// net indices the generators assigned, not chosen by an adversary, so
/// SipHash's collision resistance would buy nothing.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sentinel for "net has no gate driver" in the dense driver index.
const NO_GATE: u32 = u32::MAX;

struct Engine {
    gates: Vec<Gate>,
    alive: Vec<bool>,
    /// Union-find: `subst[net] = Some(sig)` means the net was replaced.
    /// Roots have `None`; [`Engine::resolve`] path-compresses.
    subst: Vec<Option<Signal>>,
    /// Net -> index of the driving gate (`NO_GATE` for inputs/ROM data).
    driver: Vec<u32>,
    /// Net -> indices of the gates reading it: the input module's
    /// readers as one CSR index (`csr[start[n]..start[n + 1]]`, in gate
    /// then pin order, built like `compile::cone`'s fanout), then in
    /// `added[n]` those rewrites add. May hold stale or duplicate
    /// entries; `alive` and `in_queue` filter them on wake-up.
    start: Vec<u32>,
    csr: Vec<u32>,
    added: Vec<Vec<u32>>,
    /// Structural-hash table: key -> canonical gate index. Entries always
    /// point at live gates whose current key matches.
    strash: HashMap<CseKey, u32, BuildHasherDefault<WordHasher>>,
    /// Whether the gate owns a strash entry under its current key.
    keyed: Vec<bool>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    aliased: usize,
    rewritten: usize,
    merged: usize,
}

impl Engine {
    fn new(module: &Module) -> Self {
        let gates = module.gates.clone();
        let n_nets = module.net_count();
        let n_gates = gates.len();
        let mut start = vec![0u32; n_nets + 1];
        for g in &gates {
            for n in g.inputs.iter().filter_map(|s| s.net()) {
                start[n.index() + 1] += 1;
            }
        }
        for n in 0..n_nets {
            start[n + 1] += start[n];
        }
        let mut fill = start.clone();
        let mut csr = vec![0u32; start[n_nets] as usize];
        let mut driver = vec![NO_GATE; n_nets];
        for (gi, g) in gates.iter().enumerate() {
            driver[g.output.index()] = gi as u32;
            for n in g.inputs.iter().filter_map(|s| s.net()) {
                csr[fill[n.index()] as usize] = gi as u32;
                fill[n.index()] += 1;
            }
        }
        Engine {
            alive: vec![true; n_gates],
            subst: vec![None; n_nets],
            driver,
            start,
            csr,
            added: vec![Vec::new(); n_nets],
            strash: HashMap::with_capacity_and_hasher(n_gates, Default::default()),
            keyed: vec![false; n_gates],
            queue: (0..n_gates as u32).collect(),
            in_queue: vec![true; n_gates],
            gates,
            aliased: 0,
            rewritten: 0,
            merged: 0,
        }
    }

    /// Follows the substitution chain to its root, compressing the path.
    fn resolve(&mut self, s: Signal) -> Signal {
        let Signal::Net(start) = s else { return s };
        let Some(mut root) = self.subst[start.index()] else {
            return s;
        };
        while let Signal::Net(n) = root {
            match self.subst[n.index()] {
                Some(next) => root = next,
                None => break,
            }
        }
        let mut cur = start;
        while let Some(Signal::Net(next)) = self.subst[cur.index()] {
            if Signal::Net(next) == root {
                break;
            }
            self.subst[cur.index()] = Some(root);
            cur = next;
        }
        root
    }

    /// The live `kind` gate driving `s`, if any.
    fn driven_by(&self, s: Signal, kind: CellKind) -> Option<Gate> {
        let gi = self.driver[s.net()?.index()] as usize;
        let g = *self.gates.get(gi)?;
        (g.kind == kind && self.alive[gi]).then_some(g)
    }

    /// If `s` is driven by a live inverter, its (resolved) input.
    fn inv_input(&mut self, s: Signal) -> Option<Signal> {
        match self.driven_by(s, CellKind::Inv)?.inputs[..] {
            [inp] => Some(self.resolve(inp)),
            _ => None,
        }
    }

    /// True when one operand is the inversion of the other.
    fn complementary(&mut self, a: Signal, b: Signal) -> bool {
        self.inv_input(a) == Some(b) || self.inv_input(b) == Some(a)
    }

    /// Resolved operands of the `kind` gate driving `s`, if any.
    fn binop_operands(&mut self, s: Signal, kind: CellKind) -> Option<(Signal, Signal)> {
        match self.driven_by(s, kind)?.inputs[..] {
            [x, y] => Some((self.resolve(x), self.resolve(y))),
            _ => None,
        }
    }

    /// Absorption: `a & (a | x) = a`, `a | (a & x) = a`.
    /// Redundancy: `a | (!a & x) = a | x`, `a & (!a | x) = a & x`.
    fn absorb(&mut self, kind: CellKind, a: Signal, b: Signal) -> Option<Action> {
        let inner = match kind {
            CellKind::And2 => CellKind::Or2,
            CellKind::Or2 => CellKind::And2,
            _ => return None,
        };
        // Check both operand orders: one side plain, the other a compound.
        for (plain, compound) in [(a, b), (b, a)] {
            let Some((x, y)) = self.binop_operands(compound, inner) else {
                continue;
            };
            // Absorption: plain appears inside the dual-op compound.
            if x == plain || y == plain {
                return Some(Action::Alias(plain));
            }
            // Redundancy: `plain OP (!plain DUAL x)` rewrites to
            // `plain OP x`.
            for (inverted, x_only) in [(x, y), (y, x)] {
                if self.complementary(inverted, plain) {
                    return Some(Action::Rewrite(kind, [plain, x_only].into()));
                }
            }
        }
        None
    }

    /// The rewrite applicable to gate `gi` (inputs already canonical).
    fn action_for(&mut self, gi: usize) -> Action {
        use CellKind::*;
        use Signal::Const as C;
        let Gate { kind, inputs, .. } = self.gates[gi];
        if let (And2 | Or2, &[a, b]) = (kind, &inputs[..]) {
            if let Some(action) = self.absorb(kind, a, b) {
                return action;
            }
        }
        match (kind, &inputs[..]) {
            (Inv, &[C(v)]) => Action::Alias(C(!v)),
            (Inv, &[s]) => match self.inv_input(s) {
                Some(orig) => Action::Alias(orig), // !!x = x
                None => Action::Keep,
            },
            (Buf, &[s]) => Action::Alias(s),
            (And2, &[a, b]) => match (a, b) {
                (C(false), _) | (_, C(false)) => Action::Alias(Signal::ZERO),
                (C(true), x) | (x, C(true)) => Action::Alias(x),
                (a, b) if a == b => Action::Alias(a),
                (a, b) if self.complementary(a, b) => Action::Alias(Signal::ZERO),
                _ => Action::Keep,
            },
            (Or2, &[a, b]) => match (a, b) {
                (C(true), _) | (_, C(true)) => Action::Alias(Signal::ONE),
                (C(false), x) | (x, C(false)) => Action::Alias(x),
                (a, b) if a == b => Action::Alias(a),
                (a, b) if self.complementary(a, b) => Action::Alias(Signal::ONE),
                _ => Action::Keep,
            },
            (Nand2, &[a, b]) => match (a, b) {
                (C(false), _) | (_, C(false)) => Action::Alias(Signal::ONE),
                (C(true), x) | (x, C(true)) => Action::Rewrite(Inv, [x].into()),
                (a, b) if a == b => Action::Rewrite(Inv, [a].into()),
                (a, b) if self.complementary(a, b) => Action::Alias(Signal::ONE),
                _ => Action::Keep,
            },
            (Nor2, &[a, b]) => match (a, b) {
                (C(true), _) | (_, C(true)) => Action::Alias(Signal::ZERO),
                (C(false), x) | (x, C(false)) => Action::Rewrite(Inv, [x].into()),
                (a, b) if a == b => Action::Rewrite(Inv, [a].into()),
                (a, b) if self.complementary(a, b) => Action::Alias(Signal::ZERO),
                _ => Action::Keep,
            },
            (Xor2, &[a, b]) => match (a, b) {
                (C(x), C(y)) => Action::Alias(C(x ^ y)),
                (C(false), x) | (x, C(false)) => Action::Alias(x),
                (C(true), x) | (x, C(true)) => Action::Rewrite(Inv, [x].into()),
                (a, b) if a == b => Action::Alias(Signal::ZERO),
                (a, b) if self.complementary(a, b) => Action::Alias(Signal::ONE),
                _ => Action::Keep,
            },
            (Xnor2, &[a, b]) => match (a, b) {
                (C(x), C(y)) => Action::Alias(C(!(x ^ y))),
                (C(true), x) | (x, C(true)) => Action::Alias(x),
                (C(false), x) | (x, C(false)) => Action::Rewrite(Inv, [x].into()),
                (a, b) if a == b => Action::Alias(Signal::ONE),
                (a, b) if self.complementary(a, b) => Action::Alias(Signal::ZERO),
                _ => Action::Keep,
            },
            (Mux2, &[s, a, b]) => match (s, a, b) {
                (C(false), a, _) => Action::Alias(a),
                (C(true), _, b) => Action::Alias(b),
                (_, a, b) if a == b => Action::Alias(a),
                (s, C(false), C(true)) => Action::Alias(s),
                (s, C(true), C(false)) => Action::Rewrite(Inv, [s].into()),
                (s, a, C(true)) => Action::Rewrite(Or2, [s, a].into()),
                (s, C(false), b) => Action::Rewrite(And2, [s, b].into()),
                // mux(s, a, 0) = !s & a ; mux(s, 1, b) = !s | b
                (s, a, C(false)) => Action::RewriteInverted(And2, s, a),
                (s, C(true), b) => Action::RewriteInverted(Or2, s, b),
                _ => Action::Keep,
            },
            // Flip-flops, ROM bits, and pin counts their kind rules out.
            _ => Action::Keep,
        }
    }

    fn make_key(&self, gi: usize) -> CseKey {
        use CellKind::*;
        let g = self.gates[gi];
        let mut pins = g.inputs;
        if matches!(g.kind, And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2) {
            pins.sort_unstable_by_key(|&s| sig_key(s));
        }
        CseKey(g.kind, pins, g.init)
    }

    fn enqueue(&mut self, gi: u32) {
        let i = gi as usize;
        if self.alive[i] && !self.in_queue[i] {
            self.in_queue[i] = true;
            self.queue.push_back(gi);
        }
    }

    /// Drops the gate's strash entry. Called before its inputs change or
    /// it retires, so its current inputs still give the key it owns.
    fn unkey(&mut self, gi: usize) {
        if std::mem::take(&mut self.keyed[gi]) {
            let key = self.make_key(gi);
            if self.strash.get(&key) == Some(&(gi as u32)) {
                self.strash.remove(&key);
            }
        }
    }

    /// Retires gate `gi`, substituting its output with `target`
    /// everywhere, and wakes the readers of the dead net.
    fn retire(&mut self, gi: usize, target: Signal) {
        self.unkey(gi);
        self.alive[gi] = false;
        let out = self.gates[gi].output;
        debug_assert!(
            target != Signal::Net(out),
            "self-alias would create a substitution cycle"
        );
        self.driver[out.index()] = NO_GATE;
        self.subst[out.index()] = Some(target);
        // The net is dead and never woken again: its readers re-register
        // on the root when they canonicalize.
        self.wake_readers(out);
    }

    /// Wakes the readers of a live net whose driver was rewritten (rules
    /// at the readers inspect this gate's kind and operands).
    fn wake_readers(&mut self, net: NetId) {
        let n = net.index();
        for k in self.start[n]..self.start[n + 1] {
            self.enqueue(self.csr[k as usize]);
        }
        for k in 0..self.added[n].len() {
            self.enqueue(self.added[n][k]);
        }
    }

    /// Appends a live, queued inverter of `input` driving a fresh net.
    fn add_inverter(&mut self, input: Signal, region: u16) -> NetId {
        let gi = self.gates.len() as u32;
        let output = NetId(self.subst.len() as u32);
        self.subst.push(None);
        self.driver.push(gi);
        self.start.push(self.csr.len() as u32);
        self.added.push(Vec::new());
        if let Signal::Net(n) = input {
            self.added[n.index()].push(gi);
        }
        self.gates.push(Gate {
            kind: CellKind::Inv,
            inputs: [input].into(),
            output,
            init: false,
            region,
        });
        self.alive.push(true);
        self.keyed.push(false);
        self.in_queue.push(true);
        self.queue.push_back(gi);
        output
    }

    /// Rewrites gate `gi` in place and re-enqueues it and its readers.
    fn rewrite_in_place(&mut self, gi: usize, kind: CellKind, inputs: Pins) {
        self.unkey(gi);
        // Redundancy rewrites pull in operands the gate never read before
        // (they come from the compound's driver), so register the gate as
        // a reader of every new input.
        for n in inputs.iter().filter_map(|s| s.net()) {
            self.added[n.index()].push(gi as u32);
        }
        let out = self.gates[gi].output;
        let g = &mut self.gates[gi];
        g.kind = kind;
        g.inputs = inputs;
        g.init = false;
        self.rewritten += 1;
        self.enqueue(gi as u32);
        self.wake_readers(out);
    }

    /// Inserts the gate's structural key; merges into a live twin if one
    /// already owns the key (hash-consing CSE).
    fn hash_cons(&mut self, gi: usize) {
        let key = self.make_key(gi);
        match self.strash.get(&key) {
            Some(&canon) if canon as usize != gi && self.alive[canon as usize] => {
                let twin = Signal::Net(self.gates[canon as usize].output);
                self.retire(gi, twin);
                self.merged += 1;
            }
            _ => {
                self.strash.insert(key, gi as u32);
                self.keyed[gi] = true;
            }
        }
    }

    /// Canonicalizes the gate's stored inputs through the union-find,
    /// registering it as a reader of any new root nets. When an operand
    /// actually changes, the gate's own readers are woken too: absorption
    /// and inverted-pair rules at a reader look *through* this gate at
    /// its operands, so a new operand set can newly enable them.
    fn canonicalize_inputs(&mut self, gi: usize) {
        let mut pins = self.gates[gi].inputs;
        let mut changed = false;
        for pin in pins.iter_mut() {
            let r = self.resolve(*pin);
            if r != *pin {
                *pin = r;
                changed = true;
                if let Signal::Net(net) = r {
                    self.added[net.index()].push(gi as u32);
                }
            }
        }
        if changed {
            self.unkey(gi);
            self.gates[gi].inputs = pins;
            let out = self.gates[gi].output;
            self.wake_readers(out);
        }
    }

    /// Drains the worklist: each gate is canonicalized, matched against
    /// the rule set, and its fanout re-enqueued when it changes.
    fn run(&mut self) {
        while let Some(gi) = self.queue.pop_front() {
            let gi = gi as usize;
            self.in_queue[gi] = false;
            if !self.alive[gi] {
                continue;
            }
            self.canonicalize_inputs(gi);
            match self.action_for(gi) {
                Action::Keep => self.hash_cons(gi),
                Action::Alias(target) => {
                    let target = self.resolve(target);
                    self.retire(gi, target);
                    self.aliased += 1;
                }
                Action::Rewrite(kind, inputs) => self.rewrite_in_place(gi, kind, inputs),
                Action::RewriteInverted(kind, to_invert, other) => {
                    let helper = self.add_inverter(to_invert, self.gates[gi].region);
                    self.rewrite_in_place(gi, kind, [Signal::Net(helper), other].into());
                }
            }
        }
    }

    /// Builds the output module: live gates (inputs already canonical),
    /// ROM addresses and output ports resolved, then one dead-code sweep.
    /// Returns the module and the number of gates DCE removed.
    fn finish(&mut self, original: &Module) -> (Module, usize) {
        let mut m = Module::new(original.name.clone());
        m.inputs = original.inputs.clone();
        m.regions = original.regions.clone();
        m.net_count = self.subst.len() as u32;
        m.outputs = original.outputs.clone();
        m.roms = original.roms.clone();
        let port_bits = m.outputs.iter_mut().flat_map(|p| p.bits.iter_mut());
        for s in port_bits.chain(m.roms.iter_mut().flat_map(|r| r.addr.iter_mut())) {
            *s = self.resolve(*s);
        }
        let mut alive = self.alive.iter();
        let mut gates = std::mem::take(&mut self.gates);
        gates.retain(|_| alive.next() == Some(&true));
        m.gates = gates;
        let before = m.gate_count();
        dce(&mut m);
        let dead = before - m.gate_count();
        (m, dead)
    }
}

/// Dead-code elimination: liveness over nets, seeded from output ports,
/// traced through gate inputs and ROM address pins.
fn dce(m: &mut Module) {
    let drivers = drivers(m);
    let mut live = vec![false; m.net_count as usize];
    let mut work: Vec<Signal> = m
        .outputs
        .iter()
        .flat_map(|p| p.bits.iter().copied())
        .collect();
    while let Some(s) = work.pop() {
        let Some(n) = s.net().filter(|n| !live[n.index()]) else {
            continue;
        };
        live[n.index()] = true;
        if let Some(driver) = drivers[n.index()] {
            work.extend_from_slice(driver.pins(m).0);
        }
    }
    m.gates.retain(|g| live[g.output.index()]);
    m.roms.retain(|r| r.data.iter().any(|n| live[n.index()]));
}

/// Debug-build audit that the worklist really drained to a fixpoint: on
/// the finished module (where every net is its own root) no rewrite rule
/// may match any gate, and no two gates may share a structural key.
#[cfg(debug_assertions)]
fn assert_fixpoint(m: &Module) {
    let mut engine = Engine::new(m);
    let mut seen: HashMap<CseKey, usize> = HashMap::with_capacity(m.gate_count());
    for gi in 0..engine.gates.len() {
        assert!(
            matches!(engine.action_for(gi), Action::Keep),
            "gate {gi} ({:?}) still has an applicable rewrite after optimize",
            engine.gates[gi].kind
        );
        let key = engine.make_key(gi);
        assert!(
            seen.insert(key, gi).is_none(),
            "gate {gi} ({:?}) has an unmerged structural twin after optimize",
            engine.gates[gi].kind
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::comb::unsigned_le;
    use crate::sim::Simulator;
    use pdk::Technology;

    /// Optimized and original modules must agree on every input we try.
    pub(super) fn assert_equivalent_exhaustive(
        original: &Module,
        optimized: &Module,
        width: usize,
    ) {
        let mut s0 = Simulator::new(original);
        let mut s1 = Simulator::new(optimized);
        assert_eq!(
            original.inputs.len(),
            1,
            "helper supports single-input modules"
        );
        for v in 0..(1u64 << width) {
            let want = s0.try_apply(&[v], 0).unwrap();
            assert_eq!(s1.try_apply(&[v], 0), Ok(want), "input {v}");
        }
    }

    #[test]
    fn constant_comparator_shrinks_but_stays_correct() {
        // The bespoke decision-tree node: x <= 102 with 8-bit x.
        let mut b = NetlistBuilder::new("node");
        let x = b.input("x", 8);
        let tau = b.const_word(102, 8);
        let le = unsigned_le(&mut b, &x, &tau);
        b.output("le", &[le]);
        let original = b.finish();
        let optimized = optimize(&original);
        assert!(
            optimized.gate_count() * 2 < original.gate_count(),
            "expected >2x shrink, got {} -> {}",
            original.gate_count(),
            optimized.gate_count()
        );
        assert_equivalent_exhaustive(&original, &optimized, 8);
    }

    #[test]
    fn double_inverters_cancel() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 1);
        let a = b.not(x[0]);
        let bb = b.not(a);
        let c = b.not(bb);
        let d = b.not(c);
        b.output("o", &[d]);
        let m = optimize(&b.finish());
        assert_eq!(m.gate_count(), 0);
        assert_eq!(
            m.outputs[0].bits[0],
            Signal::Net(m.inputs[0].bits[0].net().unwrap())
        );
    }

    #[test]
    fn deep_inverter_ladder_reaches_true_fixpoint() {
        // A rewrite chain far deeper than the old engine's 64-round cap:
        // 300 chained inverters must collapse to wire (even length) in one
        // worklist drain. The old fixpoint loop silently stopped early on
        // chains like this; the worklist engine terminates naturally and
        // the debug fixpoint audit (assert_fixpoint) proves nothing is
        // left applicable.
        let mut b = NetlistBuilder::new("ladder");
        let x = b.input("x", 1);
        let mut s = x[0];
        for _ in 0..300 {
            s = b.not(s);
        }
        b.output("o", &[s]);
        let m = optimize(&b.finish());
        assert_eq!(m.gate_count(), 0, "even inverter ladder must vanish");
        assert_eq!(
            m.outputs[0].bits[0], m.inputs[0].bits[0],
            "output must collapse onto the input net"
        );
        // Odd-length ladder: exactly one inverter survives.
        let mut b = NetlistBuilder::new("ladder_odd");
        let x = b.input("x", 1);
        let mut s = x[0];
        for _ in 0..301 {
            s = b.not(s);
        }
        b.output("o", &[s]);
        let m = optimize(&b.finish());
        assert_eq!(m.gate_count(), 1);
        assert_eq!(m.gates[0].kind, CellKind::Inv);
    }

    #[test]
    fn inverted_pairs_collapse() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 1);
        let nx = b.not(x[0]);
        let z = b.and(x[0], nx);
        let o = b.or(x[0], nx);
        b.output("z", &[z]);
        b.output("o", &[o]);
        let m = optimize(&b.finish());
        assert_eq!(m.gate_count(), 0);
        assert_eq!(m.outputs[0].bits[0], Signal::ZERO);
        assert_eq!(m.outputs[1].bits[0], Signal::ONE);
    }

    #[test]
    fn cse_merges_structural_duplicates() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 2);
        let a1 = b.and(x[0], x[1]);
        let a2 = b.and(x[1], x[0]); // commutative duplicate
        let o = b.xor(a1, a2); // x ^ x = 0 after CSE
        b.output("o", &[o]);
        let m = optimize(&b.finish());
        assert_eq!(m.gate_count(), 0);
        assert_eq!(m.outputs[0].bits[0], Signal::ZERO);
    }

    #[test]
    fn dce_removes_unobservable_logic() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 2);
        let _dead = b.xor(x[0], x[1]);
        let live = b.and(x[0], x[1]);
        b.output("o", &[live]);
        let m = optimize(&b.finish());
        assert_eq!(m.gate_count(), 1);
    }

    #[test]
    fn mux_collapses() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 2);
        let s = x[0];
        let d = x[1];
        let m01 = b.mux(s, Signal::ZERO, Signal::ONE); // = s
        let m10 = b.mux(s, Signal::ONE, Signal::ZERO); // = !s
        let ma0 = b.mux(s, d, Signal::ZERO); // = !s & d
        let ma1 = b.mux(s, d, Signal::ONE); // = s | d
        b.output("o", &[m01, m10, ma0, ma1]);
        let original = b.finish();
        let optimized = optimize(&original);
        assert!(optimized.gates_of(CellKind::Mux2).count() == 0);
        assert_equivalent_exhaustive(&original, &optimized, 2);
    }

    #[test]
    fn mux_collapse_trades_a_gate_for_transistors() {
        // mux(s, 1, b) = !s | b: with nothing else to fold, one Mux2 (10
        // transistors) becomes an inverter and an OR2 (8 together).
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 2);
        let m = b.mux(x[0], Signal::ONE, x[1]);
        b.output("o", &[m]);
        let original = b.finish();
        let optimized = optimize(&original);
        assert_eq!(optimized.gate_count(), 2);
        assert!(optimized.transistor_count() < original.transistor_count());
        assert_equivalent_exhaustive(&original, &optimized, 2);
    }

    #[test]
    fn constant_free_logic_is_untouched() {
        // No constants, no duplicates, everything observable: the optimizer
        // must leave the circuit alone.
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 3);
        let (s, c) = crate::arith::full_adder(&mut b, x[0], x[1], x[2]);
        b.output("s", &[s]);
        b.output("c", &[c]);
        let original = b.finish();
        let optimized = optimize(&original);
        assert_eq!(original.gate_count(), optimized.gate_count());
    }

    #[test]
    fn variable_comparator_only_loses_its_seed_carry() {
        // A comparator over two register-fed (variable) operands keeps its
        // per-bit structure; only the constant-zero seed carry of the first
        // ripple stage folds. This is the conventional-architecture case.
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 8);
        let (lo, hi) = x.split_at(4);
        let le = unsigned_le(&mut b, lo, hi);
        b.output("le", &[le]);
        let original = b.finish();
        let optimized = optimize(&original);
        assert!(optimized.gate_count() >= original.gate_count() - 4);
        assert_equivalent_exhaustive(&original, &optimized, 8);
    }

    #[test]
    fn optimized_ppa_improves_for_bespoke_node() {
        use crate::analysis::analyze;
        let lib = pdk::CellLibrary::for_technology(Technology::Egt);
        let mut b = NetlistBuilder::new("node");
        let x = b.input("x", 8);
        let tau = b.const_word(77, 8);
        let le = unsigned_le(&mut b, &x, &tau);
        b.output("le", &[le]);
        let original = b.finish();
        let optimized = optimize(&original);
        let p0 = analyze(&original, &lib);
        let p1 = analyze(&optimized, &lib);
        assert!(p1.area < p0.area);
        assert!(p1.power < p0.power);
        assert!(p1.delay <= p0.delay);
    }

    #[test]
    fn stats_account_for_every_gate() {
        let mut b = NetlistBuilder::new("node");
        let x = b.input("x", 8);
        let tau = b.const_word(102, 8);
        let le = unsigned_le(&mut b, &x, &tau);
        b.output("le", &[le]);
        let original = b.finish();
        let calls_before = OPT_CALLS.get();
        let gates_before = OPT_GATES_IN.get();
        let (optimized, stats) = optimize_with_stats(&original);
        assert_eq!(stats.gates_in, original.gate_count());
        assert_eq!(stats.gates_out, optimized.gate_count());
        assert!(stats.rewrites() > 0, "bespoke node must fold");
        assert!(stats.seconds >= 0.0);
        // Aliased + merged + dead gates all left the module; rewrites in
        // place and helper inverters stay. The counters must cover at
        // least the net shrink.
        assert!(stats.aliased + stats.merged + stats.dead >= stats.gates_in - stats.gates_out);
        assert!(OPT_CALLS.get() > calls_before);
        assert!(OPT_GATES_IN.get() >= gates_before + stats.gates_in as u64);
    }
}

#[cfg(test)]
mod absorption_tests {
    use super::tests::assert_equivalent_exhaustive;
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::comb::unsigned_le;

    #[test]
    fn absorption_folds_a_and_a_or_b() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 2);
        let or = b.or(x[0], x[1]);
        let and = b.and(x[0], or); // a & (a | b) = a
        b.output("o", &[and]);
        let m = optimize(&b.finish());
        assert_eq!(m.gate_count(), 0);
        assert_eq!(m.outputs[0].bits[0], m.inputs[0].bits[0]);
    }

    #[test]
    fn absorption_folds_a_or_a_and_b() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 2);
        let and = b.and(x[0], x[1]);
        let or = b.or(and, x[0]); // (a & b) | a = a
        b.output("o", &[or]);
        let m = optimize(&b.finish());
        assert_eq!(m.gate_count(), 0);
    }

    #[test]
    fn redundancy_folds_a_or_nota_and_b() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 2);
        let na = b.not(x[0]);
        let and = b.and(na, x[1]);
        let or = b.or(x[0], and); // a | (!a & b) = a | b
        b.output("o", &[or]);
        let original = b.finish();
        let optimized = optimize(&original);
        // One OR gate should remain (the inverter and AND die).
        assert_eq!(optimized.gate_count(), 1);
        assert_eq!(optimized.gates[0].kind, CellKind::Or2);
        assert_equivalent_exhaustive(&original, &optimized, 2);
    }

    #[test]
    fn redundancy_folds_a_and_nota_or_b() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 2);
        let na = b.not(x[0]);
        let or = b.or(na, x[1]);
        let and = b.and(x[0], or); // a & (!a | b) = a & b
        b.output("o", &[and]);
        let original = b.finish();
        let optimized = optimize(&original);
        assert_eq!(optimized.gate_count(), 1);
        assert_eq!(optimized.gates[0].kind, CellKind::And2);
        assert_equivalent_exhaustive(&original, &optimized, 2);
    }

    #[test]
    fn constant_comparator_shrinks_further_with_redundancy() {
        // The bespoke tree node again: the τ-bit-0 per-bit logic is
        // exactly the a | (!a & p) shape the redundancy rule targets.
        let mut b = NetlistBuilder::new("node");
        let x = b.input("x", 8);
        let tau = b.const_word(0b01010101, 8);
        let le = unsigned_le(&mut b, &x, &tau);
        b.output("le", &[le]);
        let original = b.finish();
        let optimized = optimize(&original);
        // With 4 zero bits, the redundancy rule kills one inverter + one
        // AND per zero bit relative to plain constant folding: expect well
        // under 2.5 gates per bit.
        assert!(
            optimized.gate_count() <= 20,
            "expected tight folding, got {} gates",
            optimized.gate_count()
        );
        assert_equivalent_exhaustive(&original, &optimized, 8);
    }
}

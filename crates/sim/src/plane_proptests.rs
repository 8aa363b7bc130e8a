//! Differential property tests for the message plane.
//!
//! The plane refactor (double-buffered mailboxes in the sequential
//! engine, the staging/slot/bucket pipeline in the parallel one) must be
//! invisible to protocols: inboxes keep the documented
//! sorted-by-sender delivery order and byte-identical contents. These
//! tests pin that down against a *reference model* — the straightforward
//! per-node `Vec` mailbox implementation the engines used before the
//! refactor, reconstructed here in ~40 lines — across random topologies
//! and fault plans (loss, burst, corruption, duplication, crash), in
//! both engines. Churn is covered by a third property: under a random
//! churn schedule both engines must log byte-identical inbox streams.
//!
//! The model shares only the *pure* fault-decision functions
//! ([`FaultPlan::drops`] & co.) and the topology with the engines; the
//! mailbox mechanics — the thing under test — are independent.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use dima_graph::gen;
use dima_graph::VertexId;
use dima_telemetry::NoopTracer;

use crate::churn::{ChurnPlan, ChurnSchedule};
use crate::engine::{run, run_with, EngineConfig};
use crate::fault::{FaultPlan, GilbertElliott};
use crate::protocol::{NodeSeed, NodeStatus, Protocol, RoundCtx};
use crate::rng::splitmix64;
use crate::topology::Topology;

/// One recorded inbox: the round it was read plus `(sender, payload)`
/// pairs in delivery order.
type InboxLog = Vec<(u64, Vec<(u32, u64)>)>;

/// What the spy sends in one round: `(target port or broadcast, payload)`.
/// A pure function of `(node, round)` so the reference model can replay
/// it without running the protocol.
fn spy_outbox(me: u32, round: u64, degree: usize) -> Vec<(Option<usize>, u64)> {
    let h = splitmix64(splitmix64(me as u64 ^ 0x0005_e9d0_f5b7).wrapping_add(round));
    let mut out = Vec::new();
    for k in 0..(h % 3) {
        let hk = splitmix64(h ^ (k + 1));
        let target = if degree > 0 && hk & 1 == 1 {
            Some((hk >> 1) as usize % degree)
        } else {
            None // broadcast (also the degree-0 no-op case)
        };
        out.push((target, hk));
    }
    out
}

/// The round at which the spy reports `Done` (pure, < `horizon`).
fn spy_finish(me: u32, horizon: u64) -> u64 {
    splitmix64(me as u64 ^ 0x0001_f1a1_54ed) % horizon.max(1)
}

/// Records every inbox it is handed, sends per [`spy_outbox`], finishes
/// per [`spy_finish`]. The log is the unit of comparison.
#[derive(Debug)]
struct SpyNode {
    me: VertexId,
    horizon: u64,
    log: InboxLog,
}

impl Protocol for SpyNode {
    type Msg = u64;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> NodeStatus {
        let round = ctx.round();
        self.log.push((round, ctx.inbox().iter().map(|e| (e.from.0, *e.msg())).collect()));
        for (target, payload) in spy_outbox(self.me.0, round, ctx.degree()) {
            match target {
                None => ctx.broadcast(payload),
                Some(p) => {
                    let to = ctx.neighbors()[p];
                    ctx.send(to, payload);
                }
            }
        }
        if round >= spy_finish(self.me.0, self.horizon) {
            NodeStatus::Done
        } else {
            NodeStatus::Active
        }
    }
}

fn spy_factory(horizon: u64) -> impl Fn(NodeSeed<'_>) -> SpyNode + Sync {
    move |seed: NodeSeed<'_>| SpyNode { me: seed.node, horizon, log: Vec::new() }
}

/// The pre-refactor mailbox semantics, replayed directly: per-node
/// `Vec<(sender, payload)>` inboxes, senders stepped in id order, a
/// message sent at round `r` read at `r + 1`, deliveries to done nodes
/// and crashed-by-receive-round nodes discarded, fault decisions taken
/// per `(round, sender, receiver, outbox index)` in the documented
/// drop → corrupt → duplicate order.
fn reference_logs(topo: &Topology, cfg: &EngineConfig, horizon: u64) -> Vec<InboxLog> {
    let n = topo.num_nodes();
    let crash_round: Vec<Option<u64>> =
        (0..n).map(|i| cfg.faults.crashed_at(cfg.seed, i as u32)).collect();
    let mut done = vec![false; n];
    let mut crashed = vec![false; n];
    let mut done_count = 0usize;
    let mut crashed_count = 0usize;
    let mut cur: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    let mut next: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    let mut logs: Vec<InboxLog> = vec![Vec::new(); n];

    for round in 0..cfg.max_rounds {
        let mut newly_done = Vec::new();
        for i in 0..n {
            if done[i] || crashed[i] {
                continue;
            }
            if crash_round[i].is_some_and(|cr| round >= cr) {
                crashed[i] = true;
                crashed_count += 1;
                continue;
            }
            let me = i as u32;
            logs[i].push((round, cur[i].clone()));
            let neighbors = topo.neighbors(VertexId(me));
            for (k, (target, payload)) in spy_outbox(me, round, neighbors.len()).iter().enumerate()
            {
                let mut route = |to: VertexId| {
                    if done[to.index()] {
                        return; // the spy's messages are not wake-class
                    }
                    if crash_round[to.index()].is_some_and(|cr| round + 1 >= cr) {
                        return;
                    }
                    if cfg.faults.drops(cfg.seed, round, me, to.0, k as u32) {
                        return;
                    }
                    if cfg.faults.corrupts(cfg.seed, round, me, to.0, k as u32) {
                        return;
                    }
                    let copies = if cfg.faults.duplicates(cfg.seed, round, me, to.0, k as u32) {
                        2
                    } else {
                        1
                    };
                    for _ in 0..copies {
                        next[to.index()].push((me, *payload));
                    }
                };
                match target {
                    Some(p) => route(neighbors[*p]),
                    None => neighbors.iter().for_each(|&to| route(to)),
                }
            }
            if round >= spy_finish(me, horizon) {
                newly_done.push(i);
            }
        }
        for i in newly_done {
            done[i] = true;
            done_count += 1;
        }
        if done_count + crashed_count == n {
            break;
        }
        for mailbox in cur.iter_mut() {
            mailbox.clear();
        }
        std::mem::swap(&mut cur, &mut next);
    }
    logs
}

/// Finish horizon for the spies; crashes spread over at most
/// `crash_from_round + crash_spread = 4 + 8` rounds, so `max_rounds`
/// below always outlasts the run.
const HORIZON: u64 = 10;
const MAX_ROUNDS: u64 = 48;

fn graph_strategy() -> impl Strategy<Value = Topology> {
    // The vendored proptest only has integer range strategies; derive the
    // average degree from an integer tenths knob.
    (2usize..24, 10u32..60, 0u64..1_000).prop_map(|(n, deg_tenths, seed)| {
        let avg_degree = (deg_tenths as f64 / 10.0).min((n - 1) as f64);
        let mut rng = SmallRng::seed_from_u64(seed);
        let g =
            gen::erdos_renyi_avg_degree(n, avg_degree, &mut rng).expect("valid family parameters");
        Topology::from_graph(&g)
    })
}

/// Shard counts worth exercising: the degenerate single shard, small
/// counts that leave every shard multi-node, and an oversubscribed 8
/// (more shards than this host has cores, and often more than the graph
/// has nodes — non-empty shards are still guaranteed by construction).
fn threads_strategy() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1usize, 2, 3, 8][i])
}

fn fault_strategy() -> impl Strategy<Value = FaultPlan> {
    // Percent knobs stand in for f64 strategies; `burst_sel == 0` means
    // no Gilbert–Elliott burst layer.
    (0u32..40, 0u32..30, 0u32..30, 0u32..60, 0u64..4, 0u32..4).prop_map(
        |(drop_pct, corrupt_pct, dup_pct, crash_pct, crash_from, burst_sel)| FaultPlan {
            drop_probability: drop_pct as f64 / 100.0,
            corrupt_probability: corrupt_pct as f64 / 100.0,
            duplicate_probability: dup_pct as f64 / 100.0,
            crash_fraction: crash_pct as f64 / 100.0,
            crash_from_round: crash_from,
            burst: (burst_sel > 0).then(|| {
                GilbertElliott::new(0.05 * burst_sel as f64, 0.2 + 0.2 * burst_sel as f64)
            }),
            ..FaultPlan::reliable()
        },
    )
}

fn engine_config(seed: u64, faults: FaultPlan) -> EngineConfig {
    EngineConfig { seed, max_rounds: MAX_ROUNDS, faults, ..EngineConfig::seeded(seed) }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Sequential engine vs the reference model: identical inbox streams
    /// (round, contents, sender order) for every node.
    #[test]
    fn sequential_matches_reference_mailboxes(
        topo in graph_strategy(),
        faults in fault_strategy(),
        seed in 0u64..1_000,
    ) {
        let cfg = engine_config(seed, faults);
        let expected = reference_logs(&topo, &cfg, HORIZON);
        let out = run(&topo, &cfg, spy_factory(HORIZON)).expect("run terminates");
        let got: Vec<&InboxLog> = out.nodes.iter().map(|n| &n.log).collect();
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            prop_assert_eq!(*g, e, "node {} inbox stream diverged", i);
        }
    }

    /// Parallel engine vs the reference model, across shard counts.
    #[test]
    fn parallel_matches_reference_mailboxes(
        topo in graph_strategy(),
        faults in fault_strategy(),
        seed in 0u64..1_000,
        threads in threads_strategy(),
    ) {
        let cfg = engine_config(seed, faults);
        let expected = reference_logs(&topo, &cfg, HORIZON);
        let out = run(&topo, &cfg.pooled(threads), spy_factory(HORIZON)).expect("run terminates");
        let got: Vec<&InboxLog> = out.nodes.iter().map(|n| &n.log).collect();
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            prop_assert_eq!(*g, e, "node {} inbox stream diverged ({} threads)", i, threads);
        }
    }

    /// Under a random churn schedule the two engines must log
    /// byte-identical inbox streams (joins recreate nodes, so both
    /// engines lose the same prefix) and agree on the round/delivery/
    /// fast-forward accounting.
    #[test]
    fn churn_engines_log_identical_inboxes(
        n in 4usize..20,
        deg_tenths in 10u32..50,
        rate_pct in 5u32..40,
        seed in 0u64..1_000,
        threads in threads_strategy(),
    ) {
        let rate = rate_pct as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let avg_degree = (deg_tenths as f64 / 10.0).min((n - 1) as f64);
        let g = gen::erdos_renyi_avg_degree(n, avg_degree, &mut rng)
            .expect("valid family parameters");
        let topo = Topology::from_graph(&g);
        let schedule = ChurnSchedule::generate(&g, &ChurnPlan::new(seed ^ 0xc4a2, rate));
        let last_batch = schedule.batches().last().map_or(0, |b| b.round);
        let cfg = EngineConfig {
            seed,
            max_rounds: last_batch + HORIZON + 16,
            ..EngineConfig::seeded(seed)
        };
        let seq = run_with(&topo, &cfg, &schedule, spy_factory(HORIZON), &mut NoopTracer)
            .expect("sequential churn run terminates");
        let par =
            run_with(&topo, &cfg.pooled(threads), &schedule, spy_factory(HORIZON), &mut NoopTracer)
                .expect("parallel churn run terminates");
        for (i, (s, p)) in seq.nodes.iter().zip(&par.nodes).enumerate() {
            prop_assert_eq!(&s.log, &p.log, "node {} inbox stream diverged", i);
        }
        prop_assert_eq!(seq.stats.rounds, par.stats.rounds);
        prop_assert_eq!(seq.stats.deliveries, par.stats.deliveries);
        prop_assert_eq!(seq.stats.idle_rounds_skipped, par.stats.idle_rounds_skipped);
        prop_assert_eq!(&seq.crashed, &par.crashed);
    }
}

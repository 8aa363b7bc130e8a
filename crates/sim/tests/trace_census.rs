//! Per-round state censuses through the telemetry plane: a real protocol
//! run under [`run_with`] into a [`StateTimeline`], one census row per
//! round, including parked (done) nodes, which keep their last label.

use dima_graph::gen::structured::cycle;
use dima_sim::telemetry::StateTimeline;
use dima_sim::{
    run_with, ChurnSchedule, EngineConfig, NodeSeed, NodeStatus, Protocol, RoundCtx, Topology,
};

/// A node counts down from its own id: node `i` is in state `C` for `i`
/// rounds, then parks in `D`. Deterministic, message-free, and gives
/// every round a distinct census row.
struct Countdown {
    remaining: usize,
}

impl Protocol for Countdown {
    type Msg = ();

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
        if self.remaining == 0 {
            ctx.trace_state("D", "countdown");
            return NodeStatus::Done;
        }
        self.remaining -= 1;
        NodeStatus::Active
    }
}

fn run_census(n: usize) -> StateTimeline {
    let g = cycle(n);
    let topo = Topology::from_graph(&g);
    let mut timeline = StateTimeline::new(n);
    let outcome = run_with(
        &topo,
        &EngineConfig::default(),
        &ChurnSchedule::empty(),
        |seed: NodeSeed<'_>| Countdown { remaining: seed.node.index() },
        &mut timeline,
    )
    .expect("countdown terminates");
    assert_eq!(outcome.stats.rounds as usize, timeline.rounds().len(), "one census row per round");
    timeline
}

#[test]
fn census_tracks_population_round_by_round() {
    let n = 6;
    let census = run_census(n);
    // Node i parks at the end of round i: after round r, nodes 0..=r are
    // in D and the rest still count down in C.
    assert_eq!(census.rounds().len(), n, "node n-1 parks in round n-1");
    for (r, snap) in census.rounds().iter().enumerate() {
        assert_eq!(snap.count("D") as usize, r + 1, "round {r}");
        assert_eq!(snap.count("C") as usize, n - r - 1, "round {r}");
    }
}

#[test]
fn census_conserves_the_node_count() {
    let n = 9;
    let census = run_census(n);
    for (r, snap) in census.rounds().iter().enumerate() {
        assert_eq!(snap.count("C") + snap.count("D"), n as u32, "round {r}");
    }
}

#[test]
fn done_population_is_monotone() {
    let census = run_census(8);
    let mut last = 0;
    for (r, snap) in census.rounds().iter().enumerate() {
        let d = snap.count("D");
        assert!(d >= last, "D shrank at round {r}");
        last = d;
    }
    assert_eq!(last, 8, "everyone parked at the end");
}

#[test]
fn census_reports_every_round() {
    let n = 4;
    let census = run_census(n);
    let rounds: Vec<u64> = census.rounds().iter().map(|s| s.round).collect();
    assert_eq!(rounds, (0..n as u64).collect::<Vec<_>>(), "one snapshot per round, in order");
    // Final round: all n nodes in D, and only there.
    let last: Vec<_> = census.rounds().last().unwrap().states().collect();
    assert_eq!(last, vec![("D", n as u32)]);
}

#[test]
fn empty_census_is_empty() {
    let census = run_census(0);
    assert!(census.rounds().is_empty());
    assert_eq!(StateTimeline::new(0).rounds().len(), 0);
}

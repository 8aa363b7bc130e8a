//! A reliable-link (ARQ) layer: run any [`Protocol`] over lossy links as
//! if the links were perfect.
//!
//! The paper assumes reliable synchronous message passing. The fault
//! plans in [`crate::fault`] break that assumption; this module wins it
//! back. [`ReliableNode`] wraps an inner protocol and is itself a
//! [`Protocol`], so either engine can run it unchanged. Per neighbor it
//! maintains a sequenced, cumulatively-acknowledged stream of *bundles* —
//! one bundle per inner round per link, possibly empty — and retransmits
//! unacknowledged bundles with a bounded, deterministic backoff.
//!
//! The wrapper doubles as an **α-synchronizer**: inner round `i` executes
//! only once the bundle for inner round `i − 1` has arrived from every
//! neighbor that can still send one. Under loss the engine's rounds
//! outnumber the inner protocol's rounds; the difference is the
//! *transport overhead* that experiment reports break out separately.
//!
//! Two properties make the wrapper transparent:
//!
//! - **Fault-free transparency.** With a reliable [`crate::fault::FaultPlan`]
//!   every bundle arrives in one engine round, so inner round `i` runs at
//!   engine round `i` with exactly the inbox the bare engine would have
//!   delivered — and the wrapper draws nothing from the node RNG, so the
//!   inner protocol's random choices are bit-identical to a bare run.
//! - **Crash containment.** A neighbor that crash-stops never
//!   acknowledges; after `max_retries` retransmissions the link is
//!   declared dead, [`Protocol::on_link_down`] tells the inner protocol
//!   to stop waiting for that peer, and the run terminates with a correct
//!   result on the residual graph. A peer that acknowledges everything
//!   and *then* crashes leaves nothing to retransmit, so a second
//!   detector backs the first: a link we are blocked on that stays
//!   completely silent past [`ArqConfig::death_timeout`] rounds is
//!   declared dead too. The timeout is sized so a live peer that is
//!   merely stalled (detecting its own dead neighbor) is never falsely
//!   killed: any receipt — data or ack — resets it.
//! - **No false deaths from parking.** A node parks (reports `Done`)
//!   once its inner protocol is done and nothing it sent is unacked,
//!   but its last ack may still be lost. Data bundles are wake-class
//!   ([`Protocol::wakes`]), so the retransmit re-enters the parked
//!   node, which re-acks it and parks again — instead of the engine
//!   dropping it until the sender declares a live link dead.
//!
//! The per-call cost is what the layer is tuned for: most calls carry
//! nothing (empty inbox, no inner round ready, no timer due) and return
//! after three comparisons; the others do one merge of the inbox
//! against the links and one pass over the links. Empty bundles carry
//! no payload handle, so they cost neither an allocation nor a
//! reference count, and a round that only broadcasts (all of the
//! coloring protocols' rounds) shares one payload across its links.

use std::collections::VecDeque;

use dima_graph::VertexId;
use dima_telemetry::{ArqEventKind, MetricsHandle};

use crate::protocol::{Envelope, NodeSeed, NodeStatus, Protocol, RoundCtx, Shared, Target};

/// Tuning for the ARQ layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ArqConfig {
    /// Retransmissions of one bundle before the link is declared dead.
    /// A live link dies only if all `max_retries + 1` transmissions of
    /// one bundle are lost or unacknowledged. With independent loss `p`
    /// per delivery, each exchange fails with `q = 1 − (1 − p)²`. For
    /// the default (16) that is `q¹⁷` per bundle: about 10⁻²⁴ at
    /// p = 0.02, 3·10⁻⁸ at p = 0.2, 10⁻⁵ at p = 0.3 and 8·10⁻³ at
    /// p = 0.5, where a long run will see false deaths. The bound also
    /// caps how long a crashed peer can stall the run.
    pub max_retries: u32,
    /// Rounds to wait for an acknowledgement before the first
    /// retransmission (the backoff then grows linearly per attempt,
    /// capped at 8 rounds). The default (2) is the fault-free round-trip
    /// time, so a healthy link is never retransmitted to.
    pub retransmit_after: u64,
    /// Engine round budgets are scaled by this factor when a protocol
    /// runs under the ARQ layer (see [`ArqConfig::round_budget`]).
    pub round_budget_factor: u64,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig { max_retries: 16, retransmit_after: 2, round_budget_factor: 12 }
    }
}

impl ArqConfig {
    /// Deterministic backoff: rounds to wait after transmission number
    /// `attempts` (1-based) before retransmitting — `retransmit_after`
    /// after the first, one round more after each further one, capped
    /// at 8.
    fn backoff(&self, attempts: u32) -> u64 {
        (self.retransmit_after + attempts.saturating_sub(1) as u64).min(8)
    }

    /// Scale a bare-engine round budget to cover retransmission stalls
    /// and link-death detection.
    pub fn round_budget(&self, bare: u64) -> u64 {
        self.round_budget_factor * bare + 2 * self.death_timeout() + 16
    }

    /// Engine rounds a blocked link may stay completely silent before the
    /// peer is presumed crashed. A live peer can legitimately go quiet
    /// for one full retransmission-exhaustion episode (it is stalled
    /// declaring *its* dead neighbor) plus propagation slack, so the
    /// timeout is two episodes with headroom — late detection only costs
    /// rounds, a false positive would wrongly shrink the residual graph.
    pub fn death_timeout(&self) -> u64 {
        // The waits after transmissions 1..=max_retries + 1; the last
        // one ends in the exhaustion verdict.
        let exhaust: u64 = (1..=self.max_retries + 1).map(|a| self.backoff(a)).sum();
        2 * exhaust + 8 * self.retransmit_after + 64
    }
}

/// A bundle's inner messages: `None` when there are none (the common
/// case — an empty bundle carries only the synchronization signal).
/// Refcounted, so every (re)transmission, engine-injected duplicate and
/// link of a broadcast round shares the one allocation built when the
/// inner round ran: the ARQ tax per copy is a pointer bump, not a deep
/// `Vec` clone.
pub type Payload<M> = Option<Shared<Vec<M>>>;

/// The ARQ layer's wire messages: sequenced data bundles and explicit
/// acknowledgements. `ack` fields carry the next bundle round the sender
/// expects (cumulative: everything below it has been received).
#[derive(Clone, Debug, PartialEq)]
pub enum ArqMsg<M> {
    /// One inner round's messages on one link.
    Data {
        /// Inner round this bundle belongs to.
        round: u32,
        /// Piggybacked cumulative ack for the reverse direction.
        ack: u32,
        /// The inner messages (see [`Payload`]).
        msgs: Payload<M>,
        /// `true` on the sender's final bundle: its inner protocol
        /// finished at `round` and will never send again.
        fin: bool,
    },
    /// Standalone cumulative acknowledgement (sent when a data receipt
    /// needs acknowledging but no bundle is going the other way).
    Ack {
        /// Next bundle round expected from the receiver of this ack.
        ack: u32,
    },
}

/// A queued outgoing bundle with its retransmission bookkeeping.
#[derive(Debug)]
struct Bundle<M> {
    round: u32,
    /// Shared with every transmission of this bundle (see [`Payload`]).
    msgs: Payload<M>,
    fin: bool,
    /// Transmissions performed so far (0 = never sent; the two rounds
    /// below are meaningful only once this is positive).
    attempts: u32,
    /// Engine round of the most recent transmission.
    last_sent: u64,
    /// Engine round of the first transmission — the start of the
    /// ack-latency clock. Measured in engine rounds (not wall clock)
    /// so the `arq/ack_rounds` histogram stays deterministic.
    first_sent: u64,
}

/// One link's received, not yet consumed bundles: a ring of slots
/// indexed by `round - base`.
///
/// It behaves exactly like a map from bundle round to payload that
/// accepts a bundle only at or above the cumulative ceiling and hands
/// each round out once, in increasing order. Slots below both the
/// ceiling and the next round to consume can never be read again, so
/// the front is popped as both advance; in steady state the ring holds
/// one or two slots and never reallocates.
#[derive(Debug)]
struct RecvQueue<M> {
    /// Bundle round of `slots[0]`: `min(ceil, next_take)`.
    base: u32,
    /// `Some` once the round has arrived.
    slots: VecDeque<Option<Payload<M>>>,
    /// Every bundle round below this has been received (the cumulative
    /// ack we advertise).
    ceil: u32,
    /// The round the next [`RecvQueue::take`] asks for.
    next_take: u32,
}

impl<M> RecvQueue<M> {
    fn new() -> Self {
        RecvQueue { base: 0, slots: VecDeque::new(), ceil: 0, next_take: 0 }
    }

    /// Store bundle `round` (idempotent — duplication faults and
    /// retransmissions collapse here). Returns `true` when the bundle
    /// was redundant: below the ceiling, or already held.
    fn insert(&mut self, round: u32, msgs: Payload<M>) -> bool {
        if round < self.ceil {
            return true;
        }
        // `base <= ceil <= round`, so the index is never negative.
        let i = (round - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].is_some() {
            return true;
        }
        self.slots[i] = Some(msgs);
        while self.slots.get((self.ceil - self.base) as usize).is_some_and(Option::is_some) {
            self.ceil += 1;
        }
        self.trim();
        false
    }

    /// Hand out bundle `round` for its inner round. Rounds are taken in
    /// increasing order; a round that never arrived (dead link, finished
    /// peer) yields `None`.
    fn take(&mut self, round: u32) -> Option<Payload<M>> {
        debug_assert!(round >= self.next_take, "recvq rounds are taken in order");
        self.next_take = round + 1;
        let got = self.slots.get_mut((round - self.base) as usize).and_then(Option::take);
        self.trim();
        got
    }

    /// Drop the slots no later call can read.
    fn trim(&mut self) {
        let lo = self.ceil.min(self.next_take);
        while self.base < lo {
            if self.slots.pop_front().is_none() {
                self.base = lo;
                break;
            }
            self.base += 1;
        }
    }
}

/// Per-neighbor link state.
#[derive(Debug)]
struct Link<M> {
    peer: VertexId,
    /// Unacknowledged outgoing bundles, oldest first.
    outq: VecDeque<Bundle<M>>,
    /// Received, not yet consumed bundles. Holding the shared handle
    /// (not a copy) keeps absorption allocation-free.
    recvq: RecvQueue<M>,
    /// The peer's final inner round, once its `fin` bundle arrived.
    peer_fin: Option<u32>,
    /// Retransmissions exhausted or silence timeout hit — the peer is
    /// presumed crashed.
    dead: bool,
    /// Anything at all arrived this call (resets `stall` — an ack is as
    /// much proof of life as a bundle). Cleared by the transmit pass.
    got_any: bool,
    /// A data bundle arrived this call (triggers an ack). Cleared by the
    /// ack pass.
    got_data: bool,
    /// A data bundle was (re)transmitted this call (it carries the
    /// piggybacked ack, so no standalone ack is needed).
    sent_data: bool,
    /// No `outq` bundle falls due before this engine round (a lower
    /// bound: acks may have removed the bundle it was computed from).
    due_at: u64,
    /// Consecutive calls we have been blocked on this link with total
    /// silence from the peer, as of the last full pass.
    stall: u64,
    /// Blocked on this link as of the last full pass. Blocking changes
    /// only with receipts, deaths and inner rounds — all of which force
    /// a full pass — so `stall` grows by one per idle call in between.
    blocked: bool,
}

impl<M> Link<M> {
    fn new(peer: VertexId) -> Self {
        Link {
            peer,
            outq: VecDeque::new(),
            recvq: RecvQueue::new(),
            peer_fin: None,
            dead: false,
            got_any: false,
            got_data: false,
            sent_data: false,
            due_at: u64::MAX,
            stall: 0,
            blocked: false,
        }
    }

    /// The peer's inner protocol finished and will neither send nor read
    /// anything further on this link — and everything it sent up to its
    /// fin has arrived. A fin that overtook a lost bundle does not count
    /// yet: the gap must still be acked, and silence on it still means
    /// a crash.
    fn peer_finished(&self) -> bool {
        self.peer_fin.is_some_and(|f| self.recvq.ceil > f)
    }

    /// The link still carries bundles: the peer is neither presumed
    /// crashed nor finished.
    fn live(&self) -> bool {
        !self.dead && !self.peer_finished()
    }

    /// Drop every outgoing bundle acknowledged by `ack`, recording each
    /// newly-acked bundle's first-send → ack latency (in engine rounds)
    /// in the `arq/ack_rounds` histogram.
    fn absorb_ack(&mut self, ack: u32, engine_round: u64, metrics: &mut MetricsHandle<'_>) {
        while self.outq.front().is_some_and(|b| b.round < ack) {
            let b = self.outq.pop_front().expect("front checked above");
            if b.attempts > 0 {
                metrics.observe("arq/ack_rounds", engine_round.saturating_sub(b.first_sent));
            }
        }
    }

    /// Store an arriving bundle; returns `true` when it was redundant
    /// (see [`RecvQueue::insert`]).
    fn absorb_data(&mut self, round: u32, msgs: Payload<M>, fin: bool) -> bool {
        if fin {
            self.peer_fin = Some(round);
        }
        self.recvq.insert(round, msgs)
    }

    /// Queue inner round `round`'s bundle, due for transmission now.
    fn queue(&mut self, round: u64, msgs: Payload<M>, fin: bool, engine_round: u64) {
        let round = round as u32;
        self.outq.push_back(Bundle { round, msgs, fin, attempts: 0, last_sent: 0, first_sent: 0 });
        self.due_at = engine_round;
    }

    /// (Re)transmit every bundle due at this engine round and recompute
    /// `due_at`. Returns `true` when a due bundle has used up its
    /// retransmissions (the link is exhausted).
    fn transmit_due(&mut self, cfg: &ArqConfig, ctx: &mut RoundCtx<'_, ArqMsg<M>>) -> bool {
        let now = ctx.round;
        let ack = self.recvq.ceil;
        let mut next_due = u64::MAX;
        for b in &mut self.outq {
            if b.attempts > 0 {
                let at = b.last_sent + cfg.backoff(b.attempts);
                if at > now {
                    next_due = next_due.min(at);
                    continue;
                }
            }
            if b.attempts > cfg.max_retries {
                return true;
            }
            if b.attempts > 0 {
                // A re-send, not the bundle's first transmission.
                ctx.trace_arq(ArqEventKind::Retransmit, self.peer);
                ctx.metric_inc("arq/retransmits", 1);
            } else {
                b.first_sent = now;
            }
            ctx.outbox.push((
                Target::Unicast(self.peer),
                ArqMsg::Data { round: b.round, ack, msgs: b.msgs.clone(), fin: b.fin },
            ));
            b.attempts += 1;
            b.last_sent = now;
            self.sent_data = true;
            next_due = next_due.min(now + cfg.backoff(b.attempts));
        }
        self.due_at = next_due;
        false
    }

    /// Whether this link holds (or will never produce) the input bundle
    /// for inner round `r`.
    fn ready_for(&self, r: u64) -> bool {
        if r == 0 || self.dead {
            return true;
        }
        let need = r - 1;
        if self.recvq.ceil as u64 > need {
            return true;
        }
        // A finished peer sends nothing beyond its fin bundle.
        self.peer_fin.is_some_and(|f| (f as u64) < need)
    }
}

/// Wraps an inner [`Protocol`] with the reliable-link layer. Create
/// instances through [`ReliableNode::factory`].
#[derive(Debug)]
pub struct ReliableNode<P: Protocol> {
    inner: P,
    cfg: ArqConfig,
    /// [`ArqConfig::death_timeout`], computed once.
    death_timeout: u64,
    links: Vec<Link<P::Msg>>,
    /// Next inner round to execute == inner rounds executed so far.
    inner_round: u64,
    inner_done: bool,
    // Caches left by the last full pass, so that a call with nothing to
    // do returns without walking the links (see `ReliableNode::idle`).
    /// The next inner round can run without any further receipt.
    runnable: bool,
    /// No bundle on any link falls due before this engine round.
    due_at: u64,
    /// The silence detector fires on the `quiet_calls`-th call after
    /// the last full pass at the earliest.
    quiet_calls: u64,
    /// Calls since the last full pass.
    idle_calls: u64,
}

impl<P: Protocol> ReliableNode<P> {
    /// Wrap a protocol factory: the returned closure builds a
    /// [`ReliableNode`] around each node the inner factory creates. The
    /// closure is `Fn` (and `Sync` when the inner factory is), so it
    /// works with both engines.
    pub fn factory<F>(cfg: ArqConfig, inner: F) -> impl Fn(NodeSeed<'_>) -> Self
    where
        F: Fn(NodeSeed<'_>) -> P,
    {
        move |seed| ReliableNode {
            inner: inner(seed.clone()),
            cfg,
            death_timeout: cfg.death_timeout(),
            links: seed.neighbors.iter().map(|&v| Link::new(v)).collect(),
            inner_round: 0,
            inner_done: false,
            runnable: true,
            due_at: 0,
            quiet_calls: u64::MAX,
            idle_calls: 0,
        }
    }

    /// The wrapped protocol state.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwrap into the inner protocol state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Inner protocol rounds executed — subtract from the engine's round
    /// count to get the transport overhead.
    pub fn inner_rounds(&self) -> u64 {
        self.inner_round
    }

    /// Neighbors whose links were declared dead (presumed crashed).
    pub fn dead_links(&self) -> Vec<VertexId> {
        self.links.iter().filter(|l| l.dead).map(|l| l.peer).collect()
    }

    fn port_of(&self, to: VertexId) -> usize {
        self.links
            .binary_search_by_key(&to, |l| l.peer)
            .unwrap_or_else(|_| panic!("inner protocol sent to non-neighbor {to:?}"))
    }

    /// Every link can supply (or will never supply) the bundle inner
    /// round `self.inner_round` needs.
    fn can_execute_inner(&self) -> bool {
        !self.inner_done && self.links.iter().all(|l| l.ready_for(self.inner_round))
    }

    /// A call at `engine_round` with an empty inbox would change nothing
    /// but the silence counters: no inner round can run, no bundle is
    /// due and no silence timeout expires. Such a call is exactly a
    /// full pass that finds nothing to do, which would also return
    /// `Active`: the last pass did, or the node would be parked, and a
    /// parked node is called again only when a bundle wakes it.
    fn idle(&self, engine_round: u64) -> bool {
        #[cfg(test)]
        if tests::FULL_PASSES_ONLY.with(std::cell::Cell::get) {
            return false;
        }
        !self.runnable && engine_round < self.due_at && self.idle_calls + 1 < self.quiet_calls
    }

    /// Absorb the inbox: acks, bundles and fins, in one merge of the
    /// sender-sorted inbox against the peer-sorted links. Returns
    /// whether any data bundle arrived.
    fn receive(&mut self, ctx: &mut RoundCtx<'_, ArqMsg<P::Msg>>) -> bool {
        let engine_round = ctx.round;
        let inbox = ctx.inbox;
        let mut any_data = false;
        let mut dup_bundles = 0u64;
        let mut port = 0;
        for env in inbox {
            while port < self.links.len() && self.links[port].peer < env.from {
                port += 1;
            }
            let Some(link) = self.links.get_mut(port).filter(|l| l.peer == env.from) else {
                continue;
            };
            link.got_any = true;
            match env.msg() {
                ArqMsg::Ack { ack } => link.absorb_ack(*ack, engine_round, &mut ctx.metrics),
                ArqMsg::Data { round, ack, msgs, fin } => {
                    link.absorb_ack(*ack, engine_round, &mut ctx.metrics);
                    link.got_data = true;
                    any_data = true;
                    let was_finished = link.peer_finished();
                    if link.absorb_data(*round, msgs.clone(), *fin) {
                        dup_bundles += 1;
                    }
                    if !was_finished && link.peer_finished() {
                        // The peer's inner protocol is done and reads
                        // nothing more: whatever we still had queued for
                        // it is moot, so stop retransmitting it.
                        link.outq.clear();
                    }
                }
            }
        }
        if dup_bundles > 0 {
            ctx.metric_inc("arq/dup_bundles", dup_bundles);
        }
        any_data
    }

    /// Run inner round `self.inner_round` on the bundles it consumes and
    /// queue its output as one bundle per live link.
    fn run_inner(&mut self, ctx: &mut RoundCtx<'_, ArqMsg<P::Msg>>) {
        let r = self.inner_round;
        let mut inbox = Vec::new();
        if r > 0 {
            for link in &mut self.links {
                if let Some(Some(msgs)) = link.recvq.take((r - 1) as u32) {
                    // The sender still holds this handle until our ack
                    // reaches it, so copy the messages out instead of
                    // unwrapping the Vec (which would clone it whole).
                    let peer = link.peer;
                    inbox.extend(msgs.iter().map(|m| Envelope::new(peer, m.clone())));
                }
            }
        }
        let mut inner_outbox = Vec::new();
        let status = {
            let mut inner_ctx = RoundCtx {
                node: ctx.node,
                round: r,
                neighbors: ctx.neighbors,
                inbox: &inbox,
                outbox: &mut inner_outbox,
                // The wrapper draws nothing from the RNG itself, so the
                // inner protocol sees the exact stream a bare run would.
                rng: &mut *ctx.rng,
                // Inner telemetry flows through the outer handle; the
                // inner ctx carries the *inner* round, so the protocol's
                // events are stamped with the round its logic actually
                // observed.
                trace: ctx.trace.reborrow(),
                metrics: ctx.metrics.reborrow(),
            };
            self.inner.on_round(&mut inner_ctx)
        };
        self.inner_done = status == NodeStatus::Done;
        self.inner_round += 1;

        let fin = self.inner_done;
        let now = ctx.round;
        if inner_outbox.iter().all(|(target, _)| *target == Target::Broadcast) {
            // Every live link gets the same bundle: share one payload.
            let msgs = (!inner_outbox.is_empty())
                .then(|| Shared::new(inner_outbox.into_iter().map(|(_, msg)| msg).collect()));
            for link in self.links.iter_mut().filter(|l| l.live()) {
                link.queue(r, msgs.clone(), fin, now);
            }
            return;
        }
        let mut parts: Vec<Vec<P::Msg>> = self.links.iter().map(|_| Vec::new()).collect();
        for (target, msg) in inner_outbox {
            match target {
                Target::Unicast(to) => parts[self.port_of(to)].push(msg),
                Target::Broadcast => {
                    for part in &mut parts {
                        part.push(msg.clone());
                    }
                }
            }
        }
        for (link, part) in self.links.iter_mut().zip(parts) {
            if link.live() {
                link.queue(r, (!part.is_empty()).then(|| Shared::new(part)), fin, now);
            }
        }
    }
}

impl<P: Protocol> Protocol for ReliableNode<P> {
    type Msg = ArqMsg<P::Msg>;

    fn kind_of(msg: &Self::Msg) -> &'static str {
        match msg {
            ArqMsg::Data { .. } => "arq-data",
            ArqMsg::Ack { .. } => "arq-ack",
        }
    }

    /// Data bundles wake a parked node so that it re-acks them. A node
    /// parks once its inner protocol is done and nothing it sent is
    /// unacknowledged; a bundle that still reaches it is a retransmit
    /// whose ack was lost (typically the peer's fin, or a gap below
    /// it). Dropping it, as the engine does for other messages to done
    /// nodes, would leave the sender retransmitting until it declared
    /// a live link dead.
    fn wakes(msg: &Self::Msg) -> bool {
        matches!(msg, ArqMsg::Data { .. })
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) -> NodeStatus {
        let engine_round = ctx.round();
        if ctx.inbox.is_empty() && self.idle(engine_round) {
            self.idle_calls += 1;
            return NodeStatus::Active;
        }

        // --- Receive, then synchronize: run the inner round if its
        //     inputs are here. ---
        let any_data = self.receive(ctx);
        if self.can_execute_inner() {
            self.run_inner(ctx);
        }

        // --- Transmit: new bundles now, timed-out bundles with backoff;
        //     exhausted or silent-past-timeout links are declared dead.
        //     The same pass refreshes the idle-call caches. ---
        let cfg = self.cfg;
        let (inner_round, inner_done) = (self.inner_round, self.inner_done);
        let idle_calls = std::mem::take(&mut self.idle_calls);
        let (mut runnable, mut due_at, mut quiet_calls) = (!inner_done, u64::MAX, u64::MAX);
        let mut settled = true;
        let mut downed: Vec<VertexId> = Vec::new();
        for link in &mut self.links {
            link.sent_data = false;
            if link.live() {
                let mut died = (link.due_at <= engine_round && link.transmit_due(&cfg, ctx))
                    .then_some(ArqEventKind::LinkDownExhausted);
                // Second detector: a peer that acked everything and then
                // crashed leaves the outq empty, so exhaustion above never
                // fires — but a link we are blocked on cannot stay silent
                // forever.
                if link.got_any {
                    link.stall = 0;
                } else {
                    if link.blocked {
                        link.stall += idle_calls;
                    }
                    if !inner_done && !link.ready_for(inner_round) {
                        link.stall += 1;
                        if link.stall > self.death_timeout {
                            died = Some(ArqEventKind::LinkDownSilent);
                        }
                    }
                }
                if let Some(kind) = died {
                    ctx.trace_arq(kind, link.peer);
                    ctx.metric_inc(
                        if matches!(kind, ArqEventKind::LinkDownExhausted) {
                            "arq/link_down_exhausted"
                        } else {
                            "arq/link_down_silent"
                        },
                        1,
                    );
                    link.dead = true;
                    link.outq.clear();
                    downed.push(link.peer);
                }
            }
            link.got_any = false;
            let ready = link.ready_for(inner_round);
            runnable &= ready;
            link.blocked = link.live() && !inner_done && !ready;
            if link.blocked {
                quiet_calls = quiet_calls.min(self.death_timeout + 1 - link.stall);
            }
            if link.live() {
                due_at = due_at.min(link.due_at);
                settled &= link.outq.is_empty();
            }
        }
        self.runnable = runnable;
        self.due_at = due_at;
        self.quiet_calls = quiet_calls;
        if !self.inner_done {
            for peer in downed {
                self.inner.on_link_down(peer);
            }
        }

        // --- Acknowledge receipts that carried no piggybacked reply. ---
        if any_data {
            for link in &mut self.links {
                if std::mem::take(&mut link.got_data) && !link.sent_data && !link.dead {
                    ctx.outbox
                        .push((Target::Unicast(link.peer), ArqMsg::Ack { ack: link.recvq.ceil }));
                    ctx.metric_inc("arq/acks_standalone", 1);
                }
            }
        }

        // --- Linger until every outgoing bundle is delivered or moot. ---
        if self.inner_done && settled {
            NodeStatus::Done
        } else {
            NodeStatus::Active
        }
    }

    fn on_link_down(&mut self, neighbor: VertexId) {
        let port = self.port_of(neighbor);
        self.links[port].dead = true;
        self.links[port].outq.clear();
        // The caches no longer describe this node: make the next call a
        // full pass.
        self.due_at = 0;
        if !self.inner_done {
            self.inner.on_link_down(neighbor);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::engine::{run, EngineConfig};
    use crate::fault::FaultPlan;
    use crate::topology::Topology;
    use dima_graph::gen::structured;

    /// Flood that tolerates dead links: every node broadcasts its id
    /// once and finishes when it has heard from every *reachable*
    /// neighbor.
    #[derive(Debug)]
    struct Flood {
        heard: Vec<VertexId>,
        expected: usize,
        sent: bool,
    }

    impl Protocol for Flood {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>) -> NodeStatus {
            if !self.sent {
                ctx.broadcast(ctx.node().0);
                self.sent = true;
            }
            for env in ctx.inbox() {
                self.heard.push(env.from);
            }
            if self.heard.len() >= self.expected {
                NodeStatus::Done
            } else {
                NodeStatus::Active
            }
        }
        fn on_link_down(&mut self, neighbor: VertexId) {
            // Stop waiting for (and discount anything heard from) the
            // unreachable neighbor.
            self.expected = self.expected.saturating_sub(1);
            self.heard.retain(|&v| v != neighbor);
        }
    }

    fn flood_factory(seed: NodeSeed<'_>) -> Flood {
        Flood { heard: Vec::new(), expected: seed.neighbors.len(), sent: false }
    }

    fn wrapped_factory(cfg: ArqConfig) -> impl Fn(NodeSeed<'_>) -> ReliableNode<Flood> {
        ReliableNode::factory(cfg, flood_factory)
    }

    #[test]
    fn fault_free_run_is_transparent() {
        let topo = Topology::from_graph(&structured::cycle(8));
        let cfg = EngineConfig::seeded(5);
        let bare = run(&topo, &cfg, flood_factory).unwrap();
        let arq = run(&topo, &cfg, wrapped_factory(ArqConfig::default())).unwrap();
        for (b, w) in bare.nodes.iter().zip(&arq.nodes) {
            assert_eq!(b.heard, w.inner().heard);
            // Inner rounds ran in lockstep with the bare engine.
            assert_eq!(w.inner_rounds(), bare.stats.rounds);
            assert!(w.dead_links().is_empty());
        }
        // Only the fin/ack linger separates the two runs.
        let overhead = arq.stats.rounds - bare.stats.rounds;
        assert!(overhead <= 3, "overhead {overhead}");
    }

    #[test]
    fn survives_uniform_loss() {
        let topo = Topology::from_graph(&structured::complete(8));
        let reliable_cfg = EngineConfig::seeded(11);
        let bare = run(&topo, &reliable_cfg, flood_factory).unwrap();
        let cfg = EngineConfig {
            faults: FaultPlan::uniform(0.25),
            max_rounds: 500,
            ..EngineConfig::seeded(11)
        };
        let arq = run(&topo, &cfg, wrapped_factory(ArqConfig::default())).unwrap();
        assert!(arq.stats.dropped > 0, "the plan should actually drop messages");
        for (b, w) in bare.nodes.iter().zip(&arq.nodes) {
            let mut got = w.inner().heard.clone();
            let mut want = b.heard.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn survives_burst_loss_and_duplication() {
        let topo = Topology::from_graph(&structured::grid(4, 4));
        let cfg = EngineConfig {
            faults: FaultPlan { duplicate_probability: 0.2, ..FaultPlan::bursty(0.05, 0.9) },
            max_rounds: 800,
            ..EngineConfig::seeded(17)
        };
        let arq = run(&topo, &cfg, wrapped_factory(ArqConfig::default())).unwrap();
        // Sequencing dedups the duplicates: every node heard each
        // neighbor exactly once.
        for (i, w) in arq.nodes.iter().enumerate() {
            let mut heard = w.inner().heard.clone();
            heard.sort_unstable();
            let expect = topo.neighbors(VertexId(i as u32)).to_vec();
            assert_eq!(heard, expect, "node {i}");
        }
    }

    #[test]
    fn crashed_peers_get_declared_dead_and_run_terminates() {
        let topo = Topology::from_graph(&structured::complete(12));
        let cfg = EngineConfig {
            // Spread 1: the victims crash at round 0 sharp, before they
            // can send anything — survivors must detect them by
            // retransmission exhaustion alone.
            faults: FaultPlan { crash_spread: 1, ..FaultPlan::crashing(0.4, 0) },
            max_rounds: 2_000,
            ..EngineConfig::seeded(23)
        };
        let arq = run(&topo, &cfg, wrapped_factory(ArqConfig::default())).unwrap();
        assert!(arq.stats.crashed > 0, "the plan should actually crash someone");
        for (i, w) in arq.nodes.iter().enumerate() {
            if arq.crashed[i] {
                continue;
            }
            // Every survivor heard from every surviving neighbor.
            let mut heard = w.inner().heard.clone();
            heard.sort_unstable();
            let expect: Vec<VertexId> = topo
                .neighbors(VertexId(i as u32))
                .iter()
                .copied()
                .filter(|v| !arq.crashed[v.index()])
                .collect();
            assert_eq!(heard, expect, "node {i}");
        }
    }

    /// Broadcasts for a fixed number of inner rounds — long enough that
    /// mid-run crashes fell peers which already acknowledged earlier
    /// bundles, the case retransmission exhaustion alone cannot detect
    /// (nothing is left unacked, so only the silence timeout fires).
    #[derive(Debug)]
    struct Chatter {
        rounds_left: u32,
        heard: u64,
    }

    impl Protocol for Chatter {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>) -> NodeStatus {
            self.heard += ctx.inbox().len() as u64;
            if self.rounds_left == 0 {
                return NodeStatus::Done;
            }
            self.rounds_left -= 1;
            ctx.broadcast(ctx.node().0);
            NodeStatus::Active
        }
    }

    #[test]
    fn mid_run_crashes_after_acks_still_terminate() {
        let topo = Topology::from_graph(&structured::complete(8));
        let cfg = EngineConfig {
            faults: FaultPlan {
                crash_fraction: 0.4,
                crash_from_round: 5,
                ..FaultPlan::uniform(0.1)
            },
            max_rounds: 5_000,
            ..EngineConfig::seeded(41)
        };
        let factory = |_seed: NodeSeed<'_>| Chatter { rounds_left: 12, heard: 0 };
        let run = run(&topo, &cfg, ReliableNode::factory(ArqConfig::default(), factory)).unwrap();
        assert!(run.stats.crashed > 0, "the plan should actually crash someone");
        for (i, w) in run.nodes.iter().enumerate() {
            if !run.crashed[i] {
                assert_eq!(w.inner_rounds(), 13, "survivor {i} must finish all inner rounds");
            }
        }
    }

    #[test]
    fn backoff_schedule_matches_its_doc() {
        let cfg = ArqConfig::default();
        // The first retransmit waits exactly `retransmit_after`, the
        // fault-free round trip; each further one a round more, to 8.
        let waits: Vec<u64> = (1..=10).map(|a| cfg.backoff(a)).collect();
        assert_eq!(waits, [2, 3, 4, 5, 6, 7, 8, 8, 8, 8]);
        let slow = ArqConfig { retransmit_after: 5, ..cfg };
        let waits: Vec<u64> = (1..=5).map(|a| slow.backoff(a)).collect();
        assert_eq!(waits, [5, 6, 7, 8, 8]);
    }

    #[test]
    fn retransmit_timer_is_exactly_retransmit_after() {
        // Fault-free, the ack of a bundle sent at round t is read at
        // t + 2. A 2-round timer therefore never fires, and a 1-round
        // timer fires on every bundle.
        let topo = Topology::from_graph(&structured::complete(6));
        let cfg = EngineConfig { metrics: true, ..EngineConfig::seeded(3) };
        let run = |retransmit_after: u64| {
            let arq = ArqConfig { retransmit_after, ..ArqConfig::default() };
            let out = run(&topo, &cfg, wrapped_factory(arq)).unwrap();
            let reg = out.stats.metrics.expect("metrics were on");
            let rtt = reg.histogram("arq/ack_rounds").expect("bundles were acked").display_min();
            (reg.counter("arq/retransmits"), rtt)
        };
        assert_eq!(run(2), (0, 2));
        let (retransmits, rtt) = run(1);
        assert_eq!(rtt, 2);
        assert!(retransmits > 0, "a timer shorter than the round trip must fire");
    }

    #[test]
    fn parked_node_re_acks_a_retransmitted_fin() {
        // Loss only, so every peer stays alive: a link death would be
        // false. Before parked nodes woke on data, a lost ack of a fin
        // killed the link once the receiver had parked.
        let topo = Topology::from_graph(&structured::complete(10));
        let mut retransmits = 0;
        for seed in 0..20 {
            let cfg = EngineConfig {
                faults: FaultPlan::uniform(0.2),
                max_rounds: 2_000,
                metrics: true,
                ..EngineConfig::seeded(seed)
            };
            let factory = |_seed: NodeSeed<'_>| Chatter { rounds_left: 6, heard: 0 };
            let run =
                run(&topo, &cfg, ReliableNode::factory(ArqConfig::default(), factory)).unwrap();
            for w in &run.nodes {
                assert!(w.dead_links().is_empty(), "seed {seed}: false link death");
                assert_eq!(w.inner().heard, 6 * 9, "seed {seed}");
            }
            retransmits += run.stats.metrics.unwrap().counter("arq/retransmits");
        }
        assert!(retransmits > 0);
    }

    /// The map the ring replaces, kept as the reference: accepts a round
    /// at or above the ceiling unless already held, hands rounds out by
    /// removal.
    #[derive(Default)]
    struct QueueModel {
        held: BTreeMap<u32, Option<u64>>,
        ceil: u32,
        fin: Option<u32>,
    }

    impl QueueModel {
        fn absorb(&mut self, round: u32, payload: Option<u64>, fin: bool) -> bool {
            if fin {
                self.fin = Some(round);
            }
            if round < self.ceil || self.held.contains_key(&round) {
                return true;
            }
            self.held.insert(round, payload);
            while self.held.contains_key(&self.ceil) {
                self.ceil += 1;
            }
            false
        }

        fn finished(&self) -> bool {
            self.fin.is_some_and(|f| self.ceil > f)
        }
    }

    proptest::proptest! {
        #[test]
        fn recv_ring_matches_the_map_model(
            fin_round in 1u32..24,
            ops in proptest::collection::vec((0u8..4, 0u32..8), 1..160),
        ) {
            let mut link: Link<u64> = Link::new(VertexId(1));
            let mut model = QueueModel::default();
            let mut next_take = 0u32;
            for (i, &(kind, off)) in ops.iter().enumerate() {
                if kind == 0 {
                    // Consume the next inner round's bundle, whether or
                    // not it arrived (a dead link's rounds move on too).
                    let got = link.recvq.take(next_take).map(|p| p.map(|m| m[0]));
                    proptest::prop_assert_eq!(got, model.held.remove(&next_take));
                    next_take += 1;
                } else {
                    // Arrivals straddle the ceiling: duplicates below it,
                    // gaps above it, and the fin (possibly ahead of a
                    // gap, possibly repeated) — never past the fin.
                    let round = (model.ceil.saturating_sub(2) + off).min(fin_round);
                    let fin = round == fin_round;
                    // Every third bundle is empty.
                    let payload = (i % 3 != 0).then_some(i as u64);
                    let dup = link.absorb_data(round, payload.map(|p| Shared::new(vec![p])), fin);
                    proptest::prop_assert_eq!(dup, model.absorb(round, payload, fin));
                }
                proptest::prop_assert_eq!(link.recvq.ceil, model.ceil);
                proptest::prop_assert_eq!(link.peer_finished(), model.finished());
                // Nothing a later call could not read is kept.
                proptest::prop_assert_eq!(link.recvq.base, model.ceil.min(next_take));
            }
        }
    }

    thread_local! {
        /// Disables the idle-call shortcut on this thread, so every call
        /// makes the full pass the shortcut claims to be equivalent to.
        pub(super) static FULL_PASSES_ONLY: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    #[test]
    fn idle_shortcut_is_exactly_a_full_pass() {
        // The shortcut skips calls and settles the silence counters
        // lazily; both must be invisible. Crash plans exercise both
        // death detectors, loss and duplication the retransmit timers.
        let topo = Topology::from_graph(&structured::grid(5, 5));
        let plans = [
            FaultPlan::uniform(0.2),
            FaultPlan { duplicate_probability: 0.2, ..FaultPlan::bursty(0.05, 0.9) },
            FaultPlan { crash_fraction: 0.3, crash_from_round: 4, ..FaultPlan::uniform(0.1) },
            FaultPlan { crash_spread: 1, ..FaultPlan::crashing(0.2, 0) },
        ];
        for (i, faults) in plans.into_iter().enumerate() {
            let cfg = EngineConfig {
                faults,
                max_rounds: 5_000,
                collect_round_stats: true,
                metrics: true,
                ..EngineConfig::seeded(40 + i as u64)
            };
            let factory = || {
                ReliableNode::factory(ArqConfig::default(), |_: NodeSeed<'_>| Chatter {
                    rounds_left: 10,
                    heard: 0,
                })
            };
            let fast = run(&topo, &cfg, factory()).unwrap();
            FULL_PASSES_ONLY.with(|f| f.set(true));
            let full = run(&topo, &cfg, factory());
            FULL_PASSES_ONLY.with(|f| f.set(false));
            let full = full.unwrap();
            assert_eq!(fast.stats, full.stats, "plan {i}");
            for (a, b) in fast.nodes.iter().zip(&full.nodes) {
                assert_eq!(a.inner().heard, b.inner().heard, "plan {i}");
                assert_eq!(a.inner_rounds(), b.inner_rounds(), "plan {i}");
                assert_eq!(a.dead_links(), b.dead_links(), "plan {i}");
            }
        }
    }

    #[test]
    fn engines_agree_under_arq_and_loss() {
        let topo = Topology::from_graph(&structured::grid(5, 4));
        let cfg = EngineConfig {
            faults: FaultPlan::uniform(0.2),
            max_rounds: 500,
            collect_round_stats: true,
            ..EngineConfig::seeded(31)
        };
        let seq = run(&topo, &cfg, wrapped_factory(ArqConfig::default())).unwrap();
        for threads in [2, 4] {
            let par =
                run(&topo, &cfg.pooled(threads), wrapped_factory(ArqConfig::default())).unwrap();
            assert_eq!(par.stats, seq.stats, "threads {threads}");
            for (a, b) in par.nodes.iter().zip(&seq.nodes) {
                assert_eq!(a.inner().heard, b.inner().heard);
                assert_eq!(a.inner_rounds(), b.inner_rounds());
            }
        }
    }
}

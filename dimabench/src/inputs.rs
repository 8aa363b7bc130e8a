//! Workload inputs, generated from the `--seed` argument.
//!
//! The generators and their RNG live here rather than in `dima_graph::gen`
//! so that a change to the program cannot change what the benchmark feeds
//! it: the program only ever sees the edge-list text and churn events built
//! below.

use std::collections::{HashMap, HashSet};

/// SplitMix64: small, fast, and stable across Rust releases.
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn key(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// A simple undirected graph as the benchmark generated it.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeList {
    pub n: usize,
    pub edges: Vec<(u32, u32)>,
}

impl EdgeList {
    /// The edge-list text the program parses (`n` header, one pair a line).
    pub fn text(&self) -> String {
        let mut out = format!("n {}\n", self.n);
        for &(u, v) in &self.edges {
            out.push_str(&format!("{u} {v}\n"));
        }
        out
    }

    pub fn max_degree(&self) -> usize {
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        deg.into_iter().max().unwrap_or(0)
    }

    /// Normalized, sorted edge set — what a parse must reproduce.
    pub fn canonical(&self) -> Vec<(u32, u32)> {
        let mut e: Vec<_> = self.edges.iter().map(|&(u, v)| key(u, v)).collect();
        e.sort_unstable();
        e
    }
}

/// Erdős–Rényi G(n, m) with `m = n · avg_degree / 2`.
pub fn erdos_renyi(n: usize, avg_degree: usize, rng: &mut Rng) -> EdgeList {
    let m = n * avg_degree / 2;
    let mut seen = HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v && seen.insert(key(u, v)) {
            edges.push(key(u, v));
        }
    }
    EdgeList { n, edges }
}

/// Barabási–Albert preferential attachment: a clique on `m + 1` nodes,
/// then each new node links to `m` distinct nodes picked by degree.
pub fn barabasi_albert(n: usize, m: usize, rng: &mut Rng) -> EdgeList {
    let mut edges = Vec::new();
    let mut ends: Vec<u32> = Vec::new();
    for u in 0..=m as u32 {
        for v in u + 1..=m as u32 {
            edges.push((u, v));
            ends.extend([u, v]);
        }
    }
    for v in (m + 1) as u32..n as u32 {
        let mut targets: Vec<u32> = Vec::with_capacity(m);
        while targets.len() < m {
            let t = ends[rng.below(ends.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for t in targets {
            edges.push(key(t, v));
            ends.extend([t, v]);
        }
    }
    EdgeList { n, edges }
}

/// Watts–Strogatz: a ring where each node links to its `k/2` nearest
/// neighbors on either side, each edge rewired with probability `beta`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, rng: &mut Rng) -> EdgeList {
    let mut edges = Vec::with_capacity(n * k / 2);
    let mut seen = HashSet::with_capacity(n * k / 2);
    for u in 0..n {
        for j in 1..=k / 2 {
            let e = key(u as u32, ((u + j) % n) as u32);
            edges.push(e);
            seen.insert(e);
        }
    }
    for e in edges.iter_mut() {
        if rng.unit() >= beta {
            continue;
        }
        let u = e.0;
        for _ in 0..16 {
            let w = rng.below(n) as u32;
            if w != u && !seen.contains(&key(u, w)) {
                seen.remove(e);
                *e = key(u, w);
                seen.insert(*e);
                break;
            }
        }
    }
    EdgeList { n, edges }
}

/// Uniform-ish random `d`-regular graph by the Steger–Wormald pairing
/// process (restarting when it gets stuck).
pub fn random_regular(n: usize, d: usize, rng: &mut Rng) -> EdgeList {
    assert!((n * d).is_multiple_of(2) && d < n, "no {d}-regular graph on {n} nodes");
    'restart: loop {
        let mut points: Vec<u32> = (0..n as u32).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        let mut seen = HashSet::with_capacity(n * d / 2);
        let mut edges = Vec::with_capacity(n * d / 2);
        while !points.is_empty() {
            let mut paired = false;
            for _ in 0..256 {
                let (i, j) = (rng.below(points.len()), rng.below(points.len()));
                let (u, v) = (points[i], points[j]);
                if u != v && seen.insert(key(u, v)) {
                    edges.push(key(u, v));
                    points.swap_remove(i.max(j));
                    points.swap_remove(i.min(j));
                    paired = true;
                    break;
                }
            }
            if !paired {
                continue 'restart;
            }
        }
        return EdgeList { n, edges };
    }
}

/// Random geometric graph: `n` points uniform in the unit square, linked
/// when closer than `r` — the ad-hoc radio model of the paper's
/// channel-assignment case.
pub fn geometric(n: usize, r: f64, rng: &mut Rng) -> EdgeList {
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.unit(), rng.unit())).collect();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
            if dx * dx + dy * dy < r * r {
                edges.push((i as u32, j as u32));
            }
        }
    }
    EdgeList { n, edges }
}

/// One churn event, in the form the service's feed accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    Up(u32, u32),
    Down(u32, u32),
    Join(u32),
    Leave(u32),
}

/// A churn stream of `batches × per_batch` events that keeps the topology
/// stationary: link-downs remove existing edges and link-ups restore
/// removed ones (at most `m / 20` edges are down at a time), and a node
/// that leaves rejoins a few events later and gets its edges back. With a
/// free event mix the graph thins out over a session and batch times
/// drift, which would make the measured figure depend on session length.
///
/// Every event is valid against the graph state the events before it
/// leave behind, so the service must accept all of them. Returns the
/// batches and the final edge set (sorted).
pub fn churn_stream(
    g: &EdgeList,
    batches: usize,
    per_batch: usize,
    rng: &mut Rng,
) -> (Vec<Vec<Event>>, Vec<(u32, u32)>) {
    let mut live = LiveEdges::new(g);
    let mut alive = vec![true; g.n];
    let mut down: Vec<(u32, u32)> = Vec::new();
    let down_cap = (g.edges.len() / 20).max(1);
    let mut left: Option<(u32, Vec<u32>)> = None;
    let mut owed: Vec<(u32, u32)> = Vec::new();
    let mut out = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(per_batch);
        while batch.len() < per_batch {
            if let Some(e) = owed.pop() {
                if alive[e.0 as usize] && alive[e.1 as usize] && live.insert(e) {
                    batch.push(Event::Up(e.0, e.1));
                }
                continue;
            }
            let r = rng.unit();
            if left.is_none() && r < 0.02 && !live.is_empty() {
                let (a, b) = live.random(rng);
                let v = if rng.below(2) == 0 { a } else { b };
                let nbrs = live.remove_vertex(v);
                alive[v as usize] = false;
                left = Some((v, nbrs));
                batch.push(Event::Leave(v));
            } else if left.is_some() && r < 0.10 {
                let (v, nbrs) = left.take().expect("checked above");
                alive[v as usize] = true;
                // Restored in the order the node lost them.
                owed.extend(nbrs.into_iter().rev().map(|w| key(v, w)));
                batch.push(Event::Join(v));
            } else if let Some(e) = pick_restorable(&down, &alive, &live, rng)
                .filter(|_| down.len() >= down_cap || rng.below(2) == 0)
            {
                live.insert(e);
                down.retain(|&d| d != e);
                batch.push(Event::Up(e.0, e.1));
            } else if !live.is_empty() {
                let e = live.random(rng);
                live.remove(e);
                down.push(e);
                batch.push(Event::Down(e.0, e.1));
            }
        }
        out.push(batch);
    }
    let mut fin = live.list;
    fin.sort_unstable();
    (out, fin)
}

/// A removed edge whose endpoints are both alive again, if any.
fn pick_restorable(
    down: &[(u32, u32)],
    alive: &[bool],
    live: &LiveEdges,
    rng: &mut Rng,
) -> Option<(u32, u32)> {
    if down.is_empty() {
        return None;
    }
    let start = rng.below(down.len());
    (0..down.len())
        .map(|i| down[(start + i) % down.len()])
        .find(|&(u, v)| alive[u as usize] && alive[v as usize] && !live.index.contains_key(&(u, v)))
}

/// The generator's model of the live edge set: O(1) insert, remove and
/// uniform pick.
struct LiveEdges {
    list: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
    adj: Vec<Vec<u32>>,
}

impl LiveEdges {
    fn new(g: &EdgeList) -> LiveEdges {
        let mut s = LiveEdges { list: Vec::new(), index: HashMap::new(), adj: vec![vec![]; g.n] };
        for &(u, v) in &g.edges {
            s.insert(key(u, v));
        }
        s
    }

    fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    fn random(&self, rng: &mut Rng) -> (u32, u32) {
        self.list[rng.below(self.list.len())]
    }

    fn insert(&mut self, e: (u32, u32)) -> bool {
        if self.index.contains_key(&e) {
            return false;
        }
        self.index.insert(e, self.list.len());
        self.list.push(e);
        self.adj[e.0 as usize].push(e.1);
        self.adj[e.1 as usize].push(e.0);
        true
    }

    fn remove(&mut self, e: (u32, u32)) {
        let i = self.index.remove(&e).expect("removing a live edge");
        self.list.swap_remove(i);
        if let Some(&moved) = self.list.get(i) {
            self.index.insert(moved, i);
        }
        self.adj[e.0 as usize].retain(|&w| w != e.1);
        self.adj[e.1 as usize].retain(|&w| w != e.0);
    }

    /// Drop every edge at `v`; returns its former neighbors.
    fn remove_vertex(&mut self, v: u32) -> Vec<u32> {
        let nbrs = self.adj[v as usize].clone();
        for &w in &nbrs {
            self.remove(key(v, w));
        }
        nbrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_simple_and_seeded() {
        let mut a = Rng::new(3, 1);
        let mut b = Rng::new(3, 1);
        for g in [
            erdos_renyi(400, 12, &mut a),
            barabasi_albert(400, 6, &mut a),
            watts_strogatz(400, 12, 0.1, &mut a),
            random_regular(400, 9, &mut a),
            geometric(200, 0.12, &mut a),
        ] {
            let c = g.canonical();
            let mut d = c.clone();
            d.dedup();
            assert_eq!(c, d, "no multi-edges");
            assert!(c.iter().all(|&(u, v)| u < v && (v as usize) < g.n));
            assert!(!c.is_empty());
        }
        assert_eq!(erdos_renyi(400, 12, &mut Rng::new(3, 1)), erdos_renyi(400, 12, &mut b));
        let r = random_regular(400, 9, &mut Rng::new(5, 0));
        assert_eq!(r.max_degree(), 9);
        assert_eq!(r.edges.len(), 1800);
    }

    #[test]
    fn churn_stream_is_valid_and_stationary() {
        let g = erdos_renyi(400, 12, &mut Rng::new(1, 0));
        let (batches, fin) = churn_stream(&g, 1000, 4, &mut Rng::new(1, 1));
        let mut live: HashSet<(u32, u32)> = g.edges.iter().copied().collect();
        let mut alive = vec![true; g.n];
        let mut leaves = 0;
        for ev in batches.iter().flatten() {
            match *ev {
                Event::Up(u, v) => {
                    assert!(alive[u as usize] && alive[v as usize]);
                    assert!(live.insert((u, v)));
                }
                Event::Down(u, v) => assert!(live.remove(&(u, v))),
                Event::Join(v) => {
                    assert!(!alive[v as usize]);
                    alive[v as usize] = true;
                }
                Event::Leave(v) => {
                    assert!(alive[v as usize]);
                    alive[v as usize] = false;
                    live.retain(|&(a, b)| a != v && b != v);
                    leaves += 1;
                }
            }
        }
        let mut end: Vec<_> = live.into_iter().collect();
        end.sort_unstable();
        assert_eq!(end, fin);
        assert!(leaves > 0, "the stream exercises node departures");
        assert!(fin.len() + g.edges.len() / 10 >= g.edges.len(), "the graph stays near its size");
    }
}

//! Output checks owned by the benchmark. They restate the coloring
//! conditions from their definitions and share no code with
//! `dima_core::verify`, so a bug there cannot hide a bad coloring here.

use std::collections::{HashMap, HashSet};

/// Every edge colored, and no vertex sees one color twice.
/// `edges[i]` are the endpoints of the edge `colors[i]` belongs to.
pub fn proper_edge_coloring(edges: &[(u32, u32)], colors: &[Option<u32>]) -> Result<(), String> {
    if edges.len() != colors.len() {
        return Err(format!("{} colors for {} edges", colors.len(), edges.len()));
    }
    let mut seen = HashSet::with_capacity(2 * edges.len());
    for (i, (&(u, v), c)) in edges.iter().zip(colors).enumerate() {
        let c = c.ok_or_else(|| format!("edge {i} ({u},{v}) is uncolored"))?;
        for x in [u, v] {
            if !seen.insert((x, c)) {
                return Err(format!("color {c} appears twice at vertex {x}"));
            }
        }
    }
    Ok(())
}

/// Strong (distance-2) coloring of the symmetric digraph over the
/// undirected `edges`: arc `u→v` must differ from its reverse `v→u` and
/// from every other arc sent by a neighbor of `v` (a transmission `v`
/// can hear), and the relation is symmetric. `arcs[i]` are the endpoints
/// of the arc `colors[i]` belongs to.
pub fn strong_coloring(
    n: usize,
    edges: &[(u32, u32)],
    arcs: &[(u32, u32)],
    colors: &[Option<u32>],
) -> Result<(), String> {
    if arcs.len() != colors.len() || arcs.len() != 2 * edges.len() {
        return Err(format!(
            "{} colors for {} arcs of {} edges",
            colors.len(),
            arcs.len(),
            edges.len()
        ));
    }
    let mut color: HashMap<(u32, u32), u32> = HashMap::with_capacity(arcs.len());
    for (i, (&a, c)) in arcs.iter().zip(colors).enumerate() {
        let c = c.ok_or_else(|| format!("arc {i} {a:?} is uncolored"))?;
        if color.insert(a, c).is_some() {
            return Err(format!("arc {a:?} appears twice"));
        }
    }
    let mut nbrs = vec![Vec::new(); n];
    for &(u, v) in edges {
        nbrs[u as usize].push(v);
        nbrs[v as usize].push(u);
    }
    let arc = |u: u32, v: u32| color.get(&(u, v)).copied().ok_or(format!("arc {u}→{v} missing"));
    for &(u, v) in edges {
        if arc(u, v)? == arc(v, u)? {
            return Err(format!("arcs {u}→{v} and {v}→{u} share a color"));
        }
    }
    let mut heard: HashMap<u32, u32> = HashMap::new();
    for (v, nv) in nbrs.iter().enumerate() {
        heard.clear();
        for &w in nv {
            for &z in &nbrs[w as usize] {
                *heard.entry(arc(w, z)?).or_default() += 1;
            }
        }
        for &w in nv {
            let c = arc(w, v as u32)?;
            if heard[&c] > 1 {
                return Err(format!("arc {w}→{v} shares color {c} with an arc heard at {v}"));
            }
        }
    }
    Ok(())
}

/// Distinct colors in `colors`.
pub fn count_colors(colors: impl IntoIterator<Item = u32>) -> usize {
    colors.into_iter().collect::<HashSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proper_checker_catches_clashes() {
        let path = [(0, 1), (1, 2), (2, 3)];
        assert!(proper_edge_coloring(&path, &[Some(0), Some(1), Some(0)]).is_ok());
        assert!(proper_edge_coloring(&path, &[Some(0), Some(0), Some(1)]).is_err());
        assert!(proper_edge_coloring(&path, &[Some(0), None, Some(1)]).is_err());
    }

    #[test]
    fn strong_checker_catches_distance_two_clashes() {
        // Path 0-1-2, all arcs distinct.
        let edges = [(0, 1), (1, 2)];
        let arcs = [(0, 1), (1, 0), (1, 2), (2, 1)];
        assert!(strong_coloring(3, &edges, &arcs, &[Some(0), Some(1), Some(2), Some(3)]).is_ok());
        // 1→0 and 1→2 share a sender.
        assert!(strong_coloring(3, &edges, &arcs, &[Some(0), Some(1), Some(1), Some(3)]).is_err());
        // Path 0-1-2-3: 0→1 and 3→2 are three hops apart and may share.
        let edges = [(0, 1), (1, 2), (2, 3)];
        let arcs = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)];
        let ok = [Some(0), Some(1), Some(2), Some(3), Some(4), Some(0)];
        assert!(strong_coloring(4, &edges, &arcs, &ok).is_ok());
        // 0→1 and 2→3: 2 is a neighbor of 1, so 1 hears 2's sending.
        let bad = [Some(0), Some(1), Some(2), Some(3), Some(0), Some(5)];
        assert!(strong_coloring(4, &edges, &arcs, &bad).is_err());
    }
}

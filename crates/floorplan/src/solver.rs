//! Branch-and-bound placement.
//!
//! Cells are placed in order at *corner* candidate positions (origin, or
//! against the right/top edges of already placed cells), each in one of its
//! shape alternatives; a partial placement is pruned when its bounding-box
//! area plus the unplaced cells' minimal areas cannot beat the incumbent.
//!
//! The incumbent bound is the only shared state. [`SharedBound`] exposes it
//! through two registered critical sections (read / try-improve), so
//! either lock from `armbar-locks` — in-place ticket or delegation DSynch —
//! can carry it; that is the pluggable piece Figure 8(d) varies.

use armbar_locks::{Executor, OpId, OpTable};

use crate::problem::{Problem, Shape};

/// A placed rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placed {
    x: u32,
    y: u32,
    shape: Shape,
}

/// The shared incumbent (lowest area found).
#[derive(Debug)]
pub struct SharedBound {
    /// Current best area (`u64::MAX` until a solution exists).
    pub best: u64,
    /// Improvements applied (diagnostics).
    pub updates: u64,
}

impl SharedBound {
    /// Fresh bound.
    #[must_use]
    pub fn new() -> SharedBound {
        SharedBound {
            best: u64::MAX,
            updates: 0,
        }
    }
}

impl Default for SharedBound {
    fn default() -> Self {
        SharedBound::new()
    }
}

/// Registered critical sections over [`SharedBound`].
#[derive(Debug, Clone, Copy)]
pub struct BoundOps {
    /// `read() -> best`.
    pub read: OpId,
    /// `try_improve(candidate) -> new best` (min of old and candidate).
    pub try_improve: OpId,
}

impl BoundOps {
    /// Install the ops into `table`.
    pub fn register(table: &mut OpTable<SharedBound>) -> BoundOps {
        BoundOps {
            read: table.register(|b, _| b.best),
            try_improve: table.register(|b, candidate| {
                if candidate < b.best {
                    b.best = candidate;
                    b.updates += 1;
                }
                b.best
            }),
        }
    }
}

/// A complete placement's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Bounding-box area of the best floorplan.
    pub area: u64,
    /// Search nodes expanded.
    pub nodes: u64,
}

fn bbox(placed: &[Placed]) -> (u32, u32) {
    let mut w = 0;
    let mut h = 0;
    for p in placed {
        w = w.max(p.x + p.shape.w);
        h = h.max(p.y + p.shape.h);
    }
    (w, h)
}

fn overlaps(placed: &[Placed], x: u32, y: u32, s: Shape) -> bool {
    placed
        .iter()
        .any(|p| x < p.x + p.shape.w && p.x < x + s.w && y < p.y + p.shape.h && p.y < y + s.h)
}

/// Candidate positions: the origin plus the top-left and bottom-right
/// corners of each placed cell (classic corner-point packing).
fn candidates(placed: &[Placed]) -> Vec<(u32, u32)> {
    if placed.is_empty() {
        return vec![(0, 0)];
    }
    let mut out = Vec::with_capacity(placed.len() * 2);
    for p in placed {
        out.push((p.x + p.shape.w, p.y));
        out.push((p.x, p.y + p.shape.h));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Remaining minimal area from cell `depth` on (suffix sums).
fn suffix_min_areas(problem: &Problem) -> Vec<u64> {
    let mut suffix = vec![0u64; problem.size() + 1];
    for i in (0..problem.size()).rev() {
        suffix[i] = suffix[i + 1] + problem.cells[i].min_area();
    }
    suffix
}

struct SearchCtx<'a, F: FnMut() -> u64, G: FnMut(u64) -> u64> {
    problem: &'a Problem,
    suffix: &'a [u64],
    read_best: F,
    improve: G,
    nodes: u64,
    /// Re-read the shared bound every this many nodes (caching it between
    /// reads models a worker's local knowledge going briefly stale).
    reread_period: u64,
    cached_best: u64,
}

impl<F: FnMut() -> u64, G: FnMut(u64) -> u64> SearchCtx<'_, F, G> {
    fn dfs(&mut self, placed: &mut Vec<Placed>, depth: usize) {
        self.nodes += 1;
        if self.nodes.is_multiple_of(self.reread_period) {
            self.cached_best = (self.read_best)();
        }
        let (w, h) = bbox(placed);
        let area_now = u64::from(w) * u64::from(h);
        // Bound 1: the bounding box only ever grows.
        if area_now >= self.cached_best {
            return;
        }
        if depth == self.problem.size() {
            let new_best = (self.improve)(area_now);
            self.cached_best = self.cached_best.min(new_best);
            return;
        }
        // Bound 2: the final box must hold every cell's area.
        let placed_area: u64 = placed.iter().map(|p| p.shape.area()).sum();
        let lower = area_now.max(placed_area + self.suffix[depth]);
        if lower >= self.cached_best {
            return;
        }
        let cands = candidates(placed);
        for &(x, y) in &cands {
            for &s in &self.problem.cells[depth].shapes {
                if overlaps(placed, x, y, s) {
                    continue;
                }
                placed.push(Placed { x, y, shape: s });
                self.dfs(placed, depth + 1);
                placed.pop();
            }
        }
    }
}

/// Solve sequentially (reference).
#[must_use]
pub fn solve_sequential(problem: &Problem) -> Solution {
    let suffix = suffix_min_areas(problem);
    let mut best = u64::MAX;
    let mut ctx = SearchCtx {
        problem,
        suffix: &suffix,
        read_best: || u64::MAX,
        improve: |_| 0,
        nodes: 0,
        reread_period: u64::MAX,
        cached_best: u64::MAX,
    };
    // Sequential mode keeps the bound in a local; wire the closures to it
    // via a small state machine instead (no locks involved).
    let mut placed = Vec::with_capacity(problem.size());
    seq_dfs(problem, &suffix, &mut placed, 0, &mut best, &mut ctx.nodes);
    Solution {
        area: best,
        nodes: ctx.nodes,
    }
}

fn seq_dfs(
    problem: &Problem,
    suffix: &[u64],
    placed: &mut Vec<Placed>,
    depth: usize,
    best: &mut u64,
    nodes: &mut u64,
) {
    *nodes += 1;
    let (w, h) = bbox(placed);
    let area_now = u64::from(w) * u64::from(h);
    if area_now >= *best {
        return;
    }
    if depth == problem.size() {
        *best = (*best).min(area_now);
        return;
    }
    let lower = area_now.max(placed.iter().map(|p| p.shape.area()).sum::<u64>() + suffix[depth]);
    if lower >= *best {
        return;
    }
    for (x, y) in candidates(placed) {
        for &s in &problem.cells[depth].shapes {
            if overlaps(placed, x, y, s) {
                continue;
            }
            placed.push(Placed { x, y, shape: s });
            seq_dfs(problem, suffix, placed, depth + 1, best, nodes);
            placed.pop();
        }
    }
}

/// Solve with `threads` workers sharing the bound through `executor`.
/// Tasks are the first cell's `(position, shape)` choices.
///
/// Returns the solution plus per-run lock-operation count.
#[must_use]
pub fn solve_parallel<E: Executor<SharedBound>>(
    problem: &Problem,
    threads: usize,
    executor: &E,
    ops: BoundOps,
    reread_period: u64,
) -> Solution {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    assert!(threads > 0);
    let suffix = suffix_min_areas(problem);
    // First-level tasks: shapes of cell 0 at the origin (positions are all
    // equivalent for the first cell), split further by cell 1's choices.
    let mut tasks: Vec<Vec<Placed>> = Vec::new();
    if problem.size() == 0 {
        return Solution { area: 0, nodes: 1 };
    }
    for &s0 in &problem.cells[0].shapes {
        let first = Placed {
            x: 0,
            y: 0,
            shape: s0,
        };
        if problem.size() == 1 {
            tasks.push(vec![first]);
            continue;
        }
        for (x, y) in candidates(&[first]) {
            for &s1 in &problem.cells[1].shapes {
                if !overlaps(&[first], x, y, s1) {
                    tasks.push(vec![first, Placed { x, y, shape: s1 }]);
                }
            }
        }
    }
    let next_task = AtomicUsize::new(0);
    let total_nodes = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let tasks = &tasks;
            let next_task = &next_task;
            let total_nodes = &total_nodes;
            let suffix = &suffix;
            scope.spawn(move || {
                let mut ctx = SearchCtx {
                    problem,
                    suffix,
                    read_best: || executor.execute(t, ops.read, 0),
                    improve: |cand| executor.execute(t, ops.try_improve, cand),
                    nodes: 0,
                    reread_period,
                    cached_best: u64::MAX,
                };
                loop {
                    let i = next_task.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks.len() {
                        break;
                    }
                    let mut placed = tasks[i].clone();
                    let depth = placed.len();
                    ctx.cached_best = (ctx.read_best)();
                    ctx.dfs(&mut placed, depth);
                }
                total_nodes.fetch_add(ctx.nodes, Ordering::Relaxed);
            });
        }
    });
    let area = executor.execute(0, ops.read, 0);
    Solution {
        area,
        nodes: total_nodes.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{bots_input, Cell};
    use armbar_locks::TicketLock;

    #[test]
    fn trivial_single_square() {
        let p = Problem {
            cells: vec![Cell {
                shapes: vec![Shape { w: 2, h: 2 }],
            }],
        };
        let s = solve_sequential(&p);
        assert_eq!(s.area, 4);
    }

    #[test]
    fn two_cells_pack_optimally() {
        // Two 1x2 dominoes: best is a 2x2 square (area 4), not 1x4? Both
        // give area 4; either way optimal area is 4.
        let p = Problem {
            cells: vec![
                Cell {
                    shapes: vec![Shape { w: 1, h: 2 }, Shape { w: 2, h: 1 }],
                },
                Cell {
                    shapes: vec![Shape { w: 1, h: 2 }, Shape { w: 2, h: 1 }],
                },
            ],
        };
        assert_eq!(solve_sequential(&p).area, 4);
    }

    #[test]
    fn optimal_area_is_at_least_total_cell_area() {
        let p = bots_input(5);
        let s = solve_sequential(&p);
        assert!(s.area >= p.area_lower_bound());
        assert!(s.nodes > 0);
    }

    #[test]
    fn parallel_matches_sequential_on_small_inputs() {
        for n in [3usize, 5] {
            let p = bots_input(n);
            let seq = solve_sequential(&p);
            let mut table = OpTable::new();
            let ops = BoundOps::register(&mut table);
            let lock = TicketLock::new(SharedBound::new(), table);
            let par = solve_parallel(&p, 3, &lock, ops, 64);
            assert_eq!(par.area, seq.area, "n={n}");
        }
    }

    #[test]
    fn stale_bound_cache_does_not_change_the_answer() {
        let p = bots_input(5);
        let seq = solve_sequential(&p);
        for period in [1u64, 16, 1024] {
            let mut table = OpTable::new();
            let ops = BoundOps::register(&mut table);
            let lock = TicketLock::new(SharedBound::new(), table);
            let par = solve_parallel(&p, 2, &lock, ops, period);
            assert_eq!(par.area, seq.area, "period={period}");
        }
    }
}

//! Input generator: calling context trees of bounded depth with sparse
//! metric columns, deterministic in the seed.
//!
//! The tree grows by hanging call chains below existing scopes. A chain
//! starts under a random non-statement scope at a depth drawn uniformly
//! from `1..=attach_depth` and has a geometric length (mean
//! `chain_mean`), clipped so that no scope lies deeper than
//! `max_depth`. Depth is therefore bounded by construction and its
//! distribution is reported by [`Tree::depth_stats`].
//!
//! Every sibling gets its own call-site line, so no two siblings share a
//! scope key. Each procedure has one module and one defining file, so
//! the Flat View's procedure scope and the Callers View's top-level
//! entry aggregate the same frames. Costs are whole numbers: every sum
//! of them is exact in `f64`, whatever the order of addition.

use callpath::expdb::model::{DbMetric, DbModel, DbNode, DbScope};

/// splitmix64 stream: the whole generator state is one `u64`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x243f_6a88_85a3_08d3)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derive an independent stream for a sub-purpose of one seed.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    Rng::new(seed ^ purpose.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Shape of a generated tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeSpec {
    /// Non-root scopes.
    pub nodes: usize,
    /// No scope is deeper than this (the root has depth 0).
    pub max_depth: u32,
    /// Chains start below a scope at a depth drawn from `1..=attach_depth`.
    pub attach_depth: u32,
    /// Mean chain length.
    pub chain_mean: u32,
    /// Top-level frames (children of the root).
    pub top_level: usize,
    /// Procedure-table size.
    pub procs: usize,
    /// Source files (procedure `p` is defined in file `p % files`).
    pub files: usize,
    /// Probability that a new frame re-enters the procedure of its
    /// nearest enclosing frame (a recursive call path).
    pub recursion: f64,
}

pub const NONE: u32 = u32::MAX;

/// What kind of scope a node is (mirrors [`DbScope`] without payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Root,
    Frame,
    Inlined,
    Loop,
    Stmt,
}

/// A generated tree plus the per-node facts the reference checks need.
pub struct Tree {
    pub procs: Vec<String>,
    pub files: Vec<String>,
    pub modules: Vec<String>,
    pub nodes: Vec<DbNode>,
    /// Indexed by node id (0 = root).
    pub parent: Vec<u32>,
    pub depth: Vec<u8>,
    pub kind: Vec<Kind>,
    /// Procedure of a frame or inlined frame, [`NONE`] otherwise.
    pub proc_of: Vec<u32>,
    /// Children in id order (CSR).
    child_start: Vec<u32>,
    child_list: Vec<u32>,
}

pub fn proc_name(p: u32) -> String {
    format!("proc_{p:05}")
}

impl Tree {
    pub fn generate(spec: &TreeSpec, seed: u64) -> Tree {
        assert!(spec.top_level >= 1 && spec.top_level <= spec.procs && spec.max_depth >= 2);
        assert!(spec.attach_depth >= 1 && spec.attach_depth < spec.max_depth);
        let mut rng = Rng::new(seed);
        let n = spec.nodes + 1;
        let modules: Vec<String> = ["app", "libmath.so", "libmpi.so", "libc.so"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let files: Vec<String> = (0..spec.files).map(|i| format!("src_{i:04}.f90")).collect();
        let mut t = Tree {
            procs: (0..spec.procs as u32).map(proc_name).collect(),
            files,
            modules,
            nodes: Vec::with_capacity(spec.nodes),
            parent: Vec::with_capacity(n),
            depth: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            proc_of: Vec::with_capacity(n),
            child_start: Vec::new(),
            child_list: Vec::new(),
        };
        t.parent.push(NONE);
        t.depth.push(0);
        t.kind.push(Kind::Root);
        t.proc_of.push(NONE);
        let mut n_children: Vec<u32> = vec![0];
        // Scopes a chain may start under, by depth (statements excluded).
        let mut by_depth: Vec<Vec<u32>> = vec![Vec::new(); spec.max_depth as usize + 1];
        // Nearest enclosing frame's procedure, per node.
        let mut frame_proc: Vec<u32> = vec![NONE];

        let files = spec.files as u32;
        let push = |t: &mut Tree,
                    n_children: &mut Vec<u32>,
                    frame_proc: &mut Vec<u32>,
                    parent: u32,
                    kind: Kind,
                    proc: u32| {
            let ord = n_children[parent as usize];
            n_children[parent as usize] += 1;
            let line = 1 + ord;
            let file = if proc == NONE {
                let fp = frame_proc[parent as usize];
                if fp == NONE {
                    0
                } else {
                    fp % files
                }
            } else {
                proc % files
            };
            let scope = match kind {
                Kind::Frame => DbScope::Frame {
                    proc,
                    module: proc % 4,
                    def_file: proc % files,
                    def_line: 1 + proc % 100,
                    call_site: if parent == 0 {
                        None
                    } else {
                        Some((file, line))
                    },
                },
                Kind::Inlined => DbScope::Inlined {
                    proc,
                    def_file: proc % files,
                    def_line: 1 + proc % 100,
                    cs_file: file,
                    cs_line: line,
                },
                Kind::Loop => DbScope::Loop { file, line },
                Kind::Stmt => DbScope::Stmt { file, line },
                Kind::Root => unreachable!("only one root"),
            };
            let id = t.parent.len() as u32;
            t.nodes.push(DbNode { parent, scope });
            t.parent.push(parent);
            let d = t.depth[parent as usize] + 1;
            t.depth.push(d);
            t.kind.push(kind);
            t.proc_of.push(proc);
            n_children.push(0);
            frame_proc.push(if kind == Kind::Frame {
                proc
            } else {
                frame_proc[parent as usize]
            });
            id
        };

        for p in 0..spec.top_level as u32 {
            let id = push(&mut t, &mut n_children, &mut frame_proc, 0, Kind::Frame, p);
            by_depth[1].push(id);
        }
        while t.parent.len() < n {
            let a = 1 + rng.below(spec.attach_depth as u64) as usize;
            if by_depth[a].is_empty() {
                continue;
            }
            let mut cur = by_depth[a][rng.below(by_depth[a].len() as u64) as usize];
            let room = (spec.max_depth as usize - a).min(n - t.parent.len());
            let mut len = 1;
            while len < room && rng.unit() > 1.0 / spec.chain_mean as f64 {
                len += 1;
            }
            for j in 0..len {
                let r = rng.unit();
                let kind = if j + 1 == len && r < 0.5 {
                    Kind::Stmt
                } else if r < 0.58 {
                    Kind::Loop
                } else if r < 0.62 {
                    Kind::Inlined
                } else {
                    Kind::Frame
                };
                let proc = match kind {
                    Kind::Frame | Kind::Inlined => {
                        let fp = frame_proc[cur as usize];
                        if kind == Kind::Frame && fp != NONE && rng.unit() < spec.recursion {
                            fp
                        } else {
                            rng.below(spec.procs as u64) as u32
                        }
                    }
                    _ => NONE,
                };
                cur = push(&mut t, &mut n_children, &mut frame_proc, cur, kind, proc);
                if kind != Kind::Stmt {
                    by_depth[t.depth[cur as usize] as usize].push(cur);
                }
            }
        }
        t.index_children();
        t
    }

    /// A tree from per-node facts alone (no database nodes).
    pub fn from_parts(
        procs: Vec<String>,
        parent: Vec<u32>,
        depth: Vec<u8>,
        kind: Vec<Kind>,
        proc_of: Vec<u32>,
    ) -> Tree {
        let mut t = Tree {
            procs,
            files: Vec::new(),
            modules: Vec::new(),
            nodes: Vec::new(),
            parent,
            depth,
            kind,
            proc_of,
            child_start: Vec::new(),
            child_list: Vec::new(),
        };
        t.index_children();
        t
    }

    fn index_children(&mut self) {
        let n = self.parent.len();
        let mut start = vec![0u32; n + 1];
        for &p in &self.parent[1..] {
            start[p as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut list = vec![0u32; n - 1];
        for (i, &p) in self.parent.iter().enumerate().skip(1) {
            list[fill[p as usize] as usize] = i as u32;
            fill[p as usize] += 1;
        }
        self.child_start = start;
        self.child_list = list;
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn children(&self, n: u32) -> &[u32] {
        let (a, b) = (
            self.child_start[n as usize] as usize,
            self.child_start[n as usize + 1] as usize,
        );
        &self.child_list[a..b]
    }

    /// Ancestors of `n`, nearest first, root excluded.
    pub fn ancestors(&self, n: u32) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.parent[n as usize];
        std::iter::from_fn(move || {
            if cur == 0 || cur == NONE {
                return None;
            }
            let c = cur;
            cur = self.parent[c as usize];
            Some(c)
        })
    }

    /// Is `n` a frame of `p` with no enclosing frame of `p` (an exposed
    /// instance in the sense of Section IV-B)?
    pub fn is_exposed_frame(&self, n: u32, p: u32) -> bool {
        self.kind[n as usize] == Kind::Frame
            && self.proc_of[n as usize] == p
            && !self
                .ancestors(n)
                .any(|a| self.kind[a as usize] == Kind::Frame && self.proc_of[a as usize] == p)
    }

    /// The tree as a database model with the given metric columns.
    pub fn model(&self, metrics: Vec<DbMetric>) -> DbModel {
        DbModel {
            procs: self.procs.clone(),
            files: self.files.clone(),
            modules: self.modules.clone(),
            nodes: self.nodes.clone(),
            metrics,
            derived: Vec::new(),
            // As the recording pipeline stores its databases
            // (`StorageKind::Dense`): faulted columns attribute densely.
            sparse: false,
        }
    }

    /// Depth distribution and recursion share, for the README and the
    /// run log.
    pub fn depth_stats(&self) -> DepthStats {
        let n = self.len() - 1;
        let mut hist = vec![0usize; 256];
        for &d in &self.depth[1..] {
            hist[d as usize] += 1;
        }
        let pct = |q: f64| {
            let target = (q * n as f64).ceil() as usize;
            let mut acc = 0;
            for (d, &c) in hist.iter().enumerate() {
                acc += c;
                if acc >= target.max(1) {
                    return d as u32;
                }
            }
            0
        };
        let mean = self.depth[1..].iter().map(|&d| d as f64).sum::<f64>() / n as f64;
        // A frame is recursive when an enclosing frame runs the same
        // procedure; counted with a depth-first walk holding the live
        // procedures of the current path.
        let mut live = vec![0u32; self.procs.len()];
        let mut frames = 0usize;
        let mut recursive = 0usize;
        let mut stack: Vec<(u32, bool)> = vec![(0, false)];
        while let Some((node, leaving)) = stack.pop() {
            let is_frame = self.kind[node as usize] == Kind::Frame;
            let p = self.proc_of[node as usize];
            if leaving {
                if is_frame {
                    live[p as usize] -= 1;
                }
                continue;
            }
            if is_frame {
                frames += 1;
                if live[p as usize] > 0 {
                    recursive += 1;
                }
                live[p as usize] += 1;
            }
            stack.push((node, true));
            for &c in self.children(node).iter().rev() {
                stack.push((c, false));
            }
        }
        DepthStats {
            mean,
            p50: pct(0.5),
            p90: pct(0.9),
            max: *self.depth.iter().max().unwrap_or(&0) as u32,
            frames,
            recursive_frames: recursive,
            root_children: self.children(0).len(),
            max_fanout: (0..self.len() as u32)
                .map(|i| self.children(i).len())
                .max()
                .unwrap_or(0),
        }
    }
}

#[derive(Debug, Clone)]
pub struct DepthStats {
    pub mean: f64,
    pub p50: u32,
    pub p90: u32,
    pub max: u32,
    pub frames: usize,
    pub recursive_frames: usize,
    pub root_children: usize,
    pub max_fanout: usize,
}

impl std::fmt::Display for DepthStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "depth mean {:.1} p50 {} p90 {} max {}; {} frames, {:.2}% recursive; \
             {} top-level scopes, max fan-out {}",
            self.mean,
            self.p50,
            self.p90,
            self.max,
            self.frames,
            100.0 * self.recursive_frames as f64 / self.frames.max(1) as f64,
            self.root_children,
            self.max_fanout
        )
    }
}

/// Metric columns: each holds `nnz` whole-number costs on distinct
/// scopes, ascending by id. One entry per column, on a scope between a
/// quarter and three quarters of `max_depth` deep, carries 60% of the
/// column's total, so the hot path of Eq. 3 runs tens of frames deep.
pub fn metrics(tree: &Tree, seed: u64, count: usize, nnz: usize, prefix: &str) -> Vec<DbMetric> {
    let n = tree.len() as u64 - 1;
    let nnz = (nnz as u64).clamp(2, n);
    let max_d = *tree.depth.iter().max().unwrap_or(&1) as u64;
    let (lo_d, hi_d) = (max_d / 4, (max_d * 3 / 4).max(max_d / 4 + 1));
    (0..count)
        .map(|m| {
            let mut rng = Rng::new(sub_seed(seed, 0x1000 + m as u64));
            let stride = n / nnz;
            let mut costs: Vec<(u32, f64)> = (0..nnz)
                .map(|k| {
                    let node = 1 + k * stride + if stride > 1 { rng.below(stride) } else { 0 };
                    (node as u32, (1 + rng.below(1000)) as f64)
                })
                .collect();
            let start = rng.below(nnz) as usize;
            let hot = (0..costs.len())
                .map(|i| (start + i) % costs.len())
                .find(|&i| {
                    let d = tree.depth[costs[i].0 as usize] as u64;
                    d >= lo_d && d <= hi_d
                })
                .unwrap_or(start);
            let rest: f64 = costs.iter().map(|c| c.1).sum::<f64>() - costs[hot].1;
            costs[hot].1 = (rest * 1.5).round();
            DbMetric {
                name: format!("{prefix}_{m:04}"),
                unit: "events".into(),
                period: 1.0,
                costs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TreeSpec {
        TreeSpec {
            nodes: 20_000,
            max_depth: 40,
            attach_depth: 20,
            chain_mean: 8,
            top_level: 16,
            procs: 300,
            files: 40,
            recursion: 0.05,
        }
    }

    #[test]
    fn trees_are_deterministic_bounded_and_topological() {
        let a = Tree::generate(&small(), 7);
        let b = Tree::generate(&small(), 7);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.len(), 20_001);
        assert!(a.depth.iter().all(|&d| d as u32 <= 40));
        for (i, node) in a.nodes.iter().enumerate() {
            assert!((node.parent as usize) < i + 1);
        }
        let s = a.depth_stats();
        assert!(s.mean > 10.0 && s.recursive_frames > 0, "{s}");
        assert_ne!(Tree::generate(&small(), 8).nodes, a.nodes);
    }

    #[test]
    fn metric_columns_are_sorted_whole_numbers_with_one_hot_entry() {
        let t = Tree::generate(&small(), 3);
        for m in metrics(&t, 3, 4, 500, "M") {
            assert!(m.costs.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(m.costs.iter().all(|c| c.1.fract() == 0.0 && c.1 > 0.0));
            let total: f64 = m.costs.iter().map(|c| c.1).sum();
            let max = m.costs.iter().map(|c| c.1).fold(0.0, f64::max);
            assert!(max >= 0.59 * total);
        }
    }
}

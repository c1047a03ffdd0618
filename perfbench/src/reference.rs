//! The benchmark's own answers, computed from the generator's model
//! (or from a database's stored direct costs) without the program's
//! attribution, views or query engine, and the checks that compare the
//! program's outputs with them.

use crate::gen::{Kind, Tree, NONE};
use callpath::core::prelude::{Cct, NodeId, ScopeKind};
use std::collections::HashMap;

/// Inclusive cost (Eq. 2) of every scope with a non-zero value: each
/// direct cost added to the scope and all its ancestors, the root
/// included.
pub fn inclusive(tree: &Tree, costs: &[(u32, f64)]) -> HashMap<u32, f64> {
    let mut incl: HashMap<u32, f64> = HashMap::new();
    for &(node, v) in costs {
        let mut cur = node;
        loop {
            *incl.entry(cur).or_insert(0.0) += v;
            if cur == 0 {
                break;
            }
            cur = tree.parent[cur as usize];
        }
    }
    incl
}

fn at(incl: &HashMap<u32, f64>, n: u32) -> f64 {
    incl.get(&n).copied().unwrap_or(0.0)
}

/// The root's inclusive value equals the column's direct costs summed
/// (Eq. 1–2: every cost lands in exactly one scope below the root).
pub fn check_root(costs: &[(u32, f64)], observed: f64) -> Result<(), String> {
    let total: f64 = costs.iter().map(|c| c.1).sum();
    if observed == total {
        Ok(())
    } else {
        Err(format!(
            "root inclusive {observed} differs from the column sum {total}"
        ))
    }
}

/// The hot path ending at `end` obeys Eq. 3: it starts at a top-level
/// scope of maximal value, each step goes to a child of maximal value
/// holding at least `t` of its parent's value, and no child of `end`
/// qualifies.
pub fn check_hot_path(
    tree: &Tree,
    incl: &HashMap<u32, f64>,
    end: u32,
    t: f64,
) -> Result<(), String> {
    if end == 0 || end as usize >= tree.len() {
        return Err(format!("hot path ends at invalid scope {end}"));
    }
    let mut path: Vec<u32> = tree.ancestors(end).collect();
    path.reverse();
    path.push(end);
    let max_of = |kids: &[u32]| kids.iter().map(|&k| at(incl, k)).fold(0.0, f64::max);
    if at(incl, path[0]) < max_of(tree.children(0)) {
        return Err(format!(
            "hot path starts at scope {} which is not a top-level maximum",
            path[0]
        ));
    }
    for w in path.windows(2) {
        let (p, c) = (at(incl, w[0]), at(incl, w[1]));
        if c < max_of(tree.children(w[0])) {
            return Err(format!(
                "hot path step {} -> {} skips a larger child",
                w[0], w[1]
            ));
        }
        if !(p > 0.0 && c >= t * p) {
            return Err(format!(
                "hot path step {} -> {} holds {c} of {p}, below the threshold {t}",
                w[0], w[1]
            ));
        }
    }
    let v = at(incl, end);
    let best = max_of(tree.children(end));
    if v > 0.0 && best >= t * v {
        return Err(format!(
            "hot path stops at scope {end} although a child holds {best} of {v}"
        ));
    }
    Ok(())
}

/// `find` selected the shallowest scope whose label names procedure `p`.
pub fn check_find(tree: &Tree, p: u32, selected: u32) -> Result<(), String> {
    let shallowest = (1..tree.len())
        .filter(|&n| tree.proc_of[n] == p)
        .map(|n| tree.depth[n])
        .min()
        .ok_or_else(|| format!("procedure {p} has no instance"))?;
    let s = selected as usize;
    if s >= tree.len() || tree.proc_of[s] != p {
        return Err(format!(
            "find selected scope {selected}, not an instance of {p}"
        ));
    }
    if tree.depth[s] != shallowest {
        return Err(format!(
            "find selected depth {} but the shallowest match is at depth {shallowest}",
            tree.depth[s]
        ));
    }
    Ok(())
}

/// A query the benchmark can evaluate itself: a procedure-name prefix
/// and/or an inclusive threshold as a percentage of the program total.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub prefix: Option<String>,
    pub metric: Option<(String, usize, f64)>,
}

impl QuerySpec {
    /// Query text in the analysis language.
    pub fn text(&self) -> String {
        let mut parts = Vec::new();
        if let Some(p) = &self.prefix {
            parts.push(format!("proc ~ \"^{p}\""));
        }
        if let Some((name, _, pct)) = &self.metric {
            parts.push(format!("incl(\"{name}\") > {pct}%"));
        }
        parts.join(" and ")
    }

    /// Brute-force match count over every scope, the root included.
    /// `incl` is the inclusive map of the named metric.
    pub fn count(&self, tree: &Tree, incl: Option<&HashMap<u32, f64>>) -> usize {
        let threshold = self.metric.as_ref().map(|(_, _, pct)| {
            let incl = incl.expect("metric query needs its inclusive map");
            (pct / 100.0 * at(incl, 0), incl)
        });
        // Only scopes with a non-zero inclusive value can pass a
        // non-negative threshold, so such a query needs no full scan.
        if let (None, Some((th, incl))) = (&self.prefix, &threshold) {
            if *th >= 0.0 {
                return incl.values().filter(|&&v| v > *th).count();
            }
        }
        (0..tree.len() as u32)
            .filter(|&n| {
                let name_ok = self.prefix.as_ref().is_none_or(|p| {
                    let pr = tree.proc_of[n as usize];
                    pr != NONE && tree.procs[pr as usize].starts_with(p.as_str())
                });
                name_ok
                    && threshold
                        .as_ref()
                        .is_none_or(|(th, incl)| at(incl, n) > *th)
            })
            .count()
    }
}

pub fn check_count(what: &str, expected: usize, observed: usize) -> Result<(), String> {
    if expected == observed {
        Ok(())
    } else {
        Err(format!(
            "{what}: program counted {observed}, brute force {expected}"
        ))
    }
}

/// Inclusive cost of procedure `p` summed over its exposed frames (no
/// enclosing frame of `p`): the Callers View top-level entry and the
/// Flat View procedure scope (Section IV-B).
pub fn exposed_sum(tree: &Tree, incl: &HashMap<u32, f64>, p: u32) -> f64 {
    (1..tree.len() as u32)
        .filter(|&n| tree.is_exposed_frame(n, p))
        .map(|n| at(incl, n))
        .sum()
}

pub fn check_value(what: &str, expected: f64, observed: f64) -> Result<(), String> {
    if expected == observed {
        Ok(())
    } else {
        Err(format!(
            "{what}: program shows {observed}, expected {expected}"
        ))
    }
}

/// One view's entries for the sampled procedures: each `(name,
/// expected)` of `want` is shown exactly once among `entries` (label,
/// value) with exactly the expected value.
pub fn check_view_entries(
    view: &str,
    entries: &[(String, f64)],
    want: &[(String, f64)],
) -> Result<(), String> {
    for (name, expected) in want {
        let mut shown = entries.iter().filter(|(label, _)| label == name);
        match (shown.next(), shown.next()) {
            (Some((_, v)), None) => check_value(&format!("{view} View {name}"), *expected, *v)?,
            (None, _) => return Err(format!("{view} View: {name} is missing")),
            (Some(_), Some(_)) => return Err(format!("{view} View: {name} is shown twice")),
        }
    }
    Ok(())
}

/// Cross-run statistics of one context, computed directly from the
/// member runs' direct costs (absent runs count as zero).
pub fn run_stats(values: &[f64]) -> [f64; 4] {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    [mean, min, max, var.sqrt()]
}

/// Compare program statistics with [`run_stats`]: mean, min and max to
/// 1e-12 of the mean's scale, stddev to 1e-6 (the program uses the
/// one-pass variance formula).
pub fn check_stats(what: &str, values: &[f64], observed: [f64; 4]) -> Result<(), String> {
    let want = run_stats(values);
    let scale = want[0].abs().max(want[2].abs()).max(1.0);
    for (i, name) in ["mean", "min", "max", "stddev"].iter().enumerate() {
        let tol = if i == 3 { 1e-6 } else { 1e-12 } * scale;
        if (want[i] - observed[i]).abs() > tol {
            return Err(format!(
                "{what} {name}: program {} vs direct {}",
                observed[i], want[i]
            ));
        }
    }
    Ok(())
}

/// The highest-scoring outlier runs are exactly the designated ones.
pub fn check_outliers(designated: &[String], top: &[String]) -> Result<(), String> {
    let mut a = designated.to_vec();
    let mut b = top.to_vec();
    a.sort();
    b.sort();
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "top outliers {b:?} differ from the designated runs {a:?}"
        ))
    }
}

/// A served reply carries a result and no error.
pub fn check_reply(reply: &str) -> Result<(), String> {
    let v = callpath::core::jsonval::parse(reply).map_err(|e| format!("unparsable reply: {e}"))?;
    let ok = v.get("ok").and_then(|o| o.as_bool()) == Some(true);
    if !ok || v.get("error").is_some() || v.get("result").is_none() {
        return Err(format!("error reply: {}", truncate(reply)));
    }
    Ok(())
}

/// A served render is byte-identical to a direct session's.
pub fn check_same_render(what: &str, direct: &str, served: &str) -> Result<(), String> {
    if direct == served {
        Ok(())
    } else {
        Err(format!(
            "{what}: served render differs from the direct session ({} vs {} bytes)",
            served.len(),
            direct.len()
        ))
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(200)]
}

impl Tree {
    /// The benchmark's own copy of an opened database's tree shape.
    pub fn from_cct(cct: &Cct) -> Tree {
        let n = cct.len();
        let names = &cct.names;
        let mut procs: Vec<String> = Vec::new();
        let mut proc_ix: HashMap<String, u32> = HashMap::new();
        let mut parent = Vec::with_capacity(n);
        let mut depth = Vec::with_capacity(n);
        let mut kind = Vec::with_capacity(n);
        let mut proc_of = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let id = NodeId(i);
            let p = cct.parent(id).map(|p| p.0).unwrap_or(NONE);
            parent.push(p);
            depth.push(if p == NONE { 0 } else { depth[p as usize] + 1 });
            let (k, name) = match cct.kind(id) {
                ScopeKind::Root => (Kind::Root, None),
                ScopeKind::Frame { proc, .. } => (Kind::Frame, Some(names.proc_name(proc))),
                ScopeKind::InlinedFrame { proc, .. } => {
                    (Kind::Inlined, Some(names.proc_name(proc)))
                }
                ScopeKind::Loop { .. } => (Kind::Loop, None),
                ScopeKind::Stmt { .. } => (Kind::Stmt, None),
            };
            kind.push(k);
            proc_of.push(match name {
                None => NONE,
                Some(s) => *proc_ix.entry(s.to_owned()).or_insert_with(|| {
                    procs.push(s.to_owned());
                    procs.len() as u32 - 1
                }),
            });
        }
        Tree::from_parts(procs, parent, depth, kind, proc_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{metrics, TreeSpec};

    fn tree() -> Tree {
        Tree::generate(
            &TreeSpec {
                nodes: 5_000,
                max_depth: 32,
                attach_depth: 16,
                chain_mean: 6,
                top_level: 8,
                procs: 120,
                files: 12,
                recursion: 0.1,
            },
            11,
        )
    }

    /// Follow Eq. 3 from the top-level maximum, as a reference walker.
    fn walk(t: &Tree, incl: &HashMap<u32, f64>, th: f64) -> u32 {
        let best = |kids: &[u32]| {
            let mut b: Option<(u32, f64)> = None;
            for &k in kids {
                let v = at(incl, k);
                if b.is_none_or(|(_, bv)| v > bv) {
                    b = Some((k, v));
                }
            }
            b
        };
        let mut cur = best(t.children(0)).unwrap().0;
        while let Some((k, v)) = best(t.children(cur)) {
            if at(incl, cur) > 0.0 && v >= th * at(incl, cur) {
                cur = k;
            } else {
                break;
            }
        }
        cur
    }

    #[test]
    fn root_check_fails_on_a_corrupted_total() {
        let t = tree();
        let m = &metrics(&t, 1, 1, 300, "M")[0];
        let total: f64 = m.costs.iter().map(|c| c.1).sum();
        assert!(check_root(&m.costs, total).is_ok());
        assert!(check_root(&m.costs, total + 1.0).is_err());
    }

    #[test]
    fn hot_path_check_fails_on_a_corrupted_value_or_end() {
        let t = tree();
        let m = &metrics(&t, 1, 1, 300, "M")[0];
        let mut incl = inclusive(&t, &m.costs);
        let end = walk(&t, &incl, 0.5);
        assert!(check_hot_path(&t, &incl, end, 0.5).is_ok());
        // Ending one step early or late breaks the rule.
        assert!(check_hot_path(&t, &incl, t.parent[end as usize], 0.5).is_err());
        // Inflating a sibling of the last step above it breaks the rule.
        let last = end;
        let parent = t.parent[last as usize];
        if let Some(&sib) = t.children(parent).iter().find(|&&s| s != last) {
            let v = at(&incl, last) + 1.0;
            incl.insert(sib, v);
            assert!(check_hot_path(&t, &incl, end, 0.5).is_err());
        }
    }

    #[test]
    fn find_check_fails_on_a_deeper_or_wrong_selection() {
        let t = tree();
        let p = t.proc_of[t.children(0)[0] as usize];
        let shallow = (1..t.len() as u32)
            .filter(|&n| t.proc_of[n as usize] == p)
            .min_by_key(|&n| t.depth[n as usize])
            .unwrap();
        assert!(check_find(&t, p, shallow).is_ok());
        let deeper = (1..t.len() as u32).find(|&n| {
            t.proc_of[n as usize] == p && t.depth[n as usize] > t.depth[shallow as usize]
        });
        if let Some(d) = deeper {
            assert!(check_find(&t, p, d).is_err());
        }
        assert!(check_find(&t, p + 1, shallow).is_err());
    }

    #[test]
    fn query_count_check_fails_on_an_off_by_one_count() {
        let t = tree();
        let m = &metrics(&t, 1, 1, 300, "M")[0];
        let incl = inclusive(&t, &m.costs);
        let q = QuerySpec {
            prefix: Some("proc_000".into()),
            metric: Some(("M_0000".into(), 0, 0.5)),
        };
        assert_eq!(q.text(), "proc ~ \"^proc_000\" and incl(\"M_0000\") > 0.5%");
        let n = q.count(&t, Some(&incl));
        assert!(check_count("q", n, n).is_ok());
        assert!(check_count("q", n, n + 1).is_err());
    }

    #[test]
    fn exposed_sum_excludes_nested_recursive_frames() {
        let t = tree();
        let m = &metrics(&t, 1, 1, 300, "M")[0];
        let incl = inclusive(&t, &m.costs);
        // A procedure with a recursive instance: the exposed sum is
        // strictly below the naive sum over all its frames.
        let rec = (1..t.len() as u32)
            .find(|&n| {
                t.kind[n as usize] == Kind::Frame
                    && !t.is_exposed_frame(n, t.proc_of[n as usize])
                    && at(&incl, n) > 0.0
            })
            .expect("the generator makes recursive call paths");
        let p = t.proc_of[rec as usize];
        let naive: f64 = (1..t.len() as u32)
            .filter(|&n| t.kind[n as usize] == Kind::Frame && t.proc_of[n as usize] == p)
            .map(|n| at(&incl, n))
            .sum();
        let exposed = exposed_sum(&t, &incl, p);
        assert!(exposed < naive);
        assert!(check_value("callers", exposed, exposed).is_ok());
        assert!(check_value("callers", exposed, exposed + 1.0).is_err());
    }

    #[test]
    fn view_entry_check_fails_on_a_missing_wrong_or_doubled_procedure() {
        let want = vec![("proc_0000".to_string(), 5.0), ("proc_0037".to_string(), 2.0)];
        let mut entries = want.clone();
        entries.push(("proc_0001".into(), 9.0));
        assert!(check_view_entries("Flat", &entries, &want).is_ok());
        // A view that drops a sampled procedure fails, whatever the
        // other view shows.
        let dropped: Vec<_> = entries[1..].to_vec();
        assert!(check_view_entries("Flat", &dropped, &want).is_err());
        let mut wrong = entries.clone();
        wrong[1].1 += 1.0;
        assert!(check_view_entries("Flat", &wrong, &want).is_err());
        let mut doubled = entries.clone();
        doubled.push(want[0].clone());
        assert!(check_view_entries("Flat", &doubled, &want).is_err());
    }

    #[test]
    fn stats_and_outlier_checks_fail_on_corruption() {
        let runs = [3.0, 0.0, 5.0, 4.0];
        let s = run_stats(&runs);
        assert!(check_stats("ctx", &runs, s).is_ok());
        for i in 0..4 {
            let mut bad = s;
            bad[i] += 0.5;
            assert!(check_stats("ctx", &runs, bad).is_err(), "stat {i}");
        }
        let d = vec!["run-0003".to_string(), "run-0007".to_string()];
        assert!(check_outliers(&d, &["run-0007".into(), "run-0003".into()]).is_ok());
        assert!(check_outliers(&d, &["run-0007".into(), "run-0004".into()]).is_err());
    }

    #[test]
    fn reply_and_render_checks_fail_on_corruption() {
        assert!(check_reply(r#"{"id":1,"ok":true,"result":{"render":"x"}}"#).is_ok());
        assert!(
            check_reply(r#"{"id":1,"ok":false,"error":{"code":"command","message":"m"}}"#).is_err()
        );
        assert!(check_reply(r#"{"id":1,"result""#).is_err());
        assert!(check_same_render("r", "a b", "a b").is_ok());
        assert!(check_same_render("r", "a b", "a c").is_err());
    }
}

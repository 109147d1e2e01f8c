//! Output checks computed apart from the engine: id lists from answer
//! rows, the selection property, Pair Completeness and precision
//! against the generator's ground truth, and answer digests for
//! equality checks between engines and execution modes.

use crate::data::Truth;
use queryer_common::{FxHashMap, FxHashSet};
use queryer_core::QueryResult;
use queryer_storage::{RecordId, Value};
use std::hash::{Hash, Hasher};

/// Separator the Group-Entities operator fuses differing values with.
const SEP: &str = " | ";

/// The record ids fused into one output `id` cell: a single id renders
/// as an integer, several as `a | b | …`, none (a deleted row) as NULL.
pub fn id_list(v: &Value) -> Result<Vec<RecordId>, String> {
    match v {
        Value::Null => Ok(Vec::new()),
        Value::Int(i) => RecordId::try_from(*i)
            .map(|id| vec![id])
            .map_err(|_| format!("id {i} out of range")),
        Value::Str(s) => s
            .split(SEP)
            .map(|t| {
                t.trim()
                    .parse::<RecordId>()
                    .map_err(|_| format!("malformed id list {s:?}"))
            })
            .collect(),
        Value::Float(f) => Err(format!("float id {f}")),
    }
}

/// The id lists of column `col` of every answer row.
pub fn id_lists(res: &QueryResult, col: usize) -> Result<Vec<Vec<RecordId>>, String> {
    res.rows.iter().map(|r| id_list(&r[col])).collect()
}

/// SP property: entities are disjoint, so no id sits in two rows'
/// id lists; every selected id sits in one; every row holds a selected
/// id.
pub fn check_sp_selection(selection: &[RecordId], lists: &[Vec<RecordId>]) -> Result<(), String> {
    let mut seen: FxHashSet<RecordId> = FxHashSet::default();
    for list in lists {
        for &id in list {
            if !seen.insert(id) {
                return Err(format!("id {id} appears in two rows"));
            }
        }
    }
    let selected: FxHashSet<RecordId> = selection.iter().copied().collect();
    if let Some(id) = selection.iter().find(|id| !seen.contains(id)) {
        return Err(format!("selected id {id} appears in no row"));
    }
    if let Some(row) = lists
        .iter()
        .find(|l| !l.iter().any(|id| selected.contains(id)))
    {
        return Err(format!("row {row:?} holds no selected id"));
    }
    Ok(())
}

/// SPJ property on the selection side: every row's left id list holds a
/// selected id, and every selected id in `must_join` (rows whose own join
/// value matches a right row, so plain SQL would return them) appears in
/// some row.
pub fn check_spj_selection(
    selection: &[RecordId],
    must_join: &[RecordId],
    left_lists: &[Vec<RecordId>],
) -> Result<(), String> {
    let selected: FxHashSet<RecordId> = selection.iter().copied().collect();
    if let Some(row) = left_lists
        .iter()
        .find(|l| !l.iter().any(|id| selected.contains(id)))
    {
        return Err(format!("join row {row:?} holds no selected id"));
    }
    let present: FxHashSet<RecordId> = left_lists.iter().flatten().copied().collect();
    match must_join.iter().find(|id| !present.contains(id)) {
        Some(id) => Err(format!("selected id {id} joins but is missing")),
        None => Ok(()),
    }
}

/// Pair Completeness and precision, accumulated over answers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// True duplicate pairs with a member in some query's selection.
    pub relevant: u64,
    /// Of those, pairs found in one output row's id list.
    pub found: u64,
    /// Same-row id pairs in the answers.
    pub pairs: u64,
    /// Of those, true duplicates.
    pub true_pairs: u64,
    /// Distinct id lists of two or more ids, per answer side.
    pub grouped_rows: u64,
    /// Sum over those lists of the share of their id pairs that are
    /// true duplicates.
    pub row_precision: f64,
}

impl Quality {
    /// Adds one answer's recall side: each true pair with a member in
    /// `selection` is found when both ids share one of `lists`.
    pub fn add_pc(&mut self, selection: &[RecordId], lists: &[Vec<RecordId>], truth: &Truth) {
        let mut rows_of: FxHashMap<RecordId, Vec<usize>> = FxHashMap::default();
        for (r, list) in lists.iter().enumerate() {
            for &id in list {
                rows_of.entry(id).or_default().push(r);
            }
        }
        let selected: FxHashSet<RecordId> = selection.iter().copied().collect();
        let mut done: FxHashSet<u32> = FxHashSet::default();
        for &s in selection {
            let Some(label) = truth.label(s) else {
                continue;
            };
            if !done.insert(label) {
                continue;
            }
            let entity = truth.entity_of(s);
            for (i, &a) in entity.iter().enumerate() {
                for &b in &entity[i + 1..] {
                    if !(selected.contains(&a) || selected.contains(&b)) {
                        continue;
                    }
                    self.relevant += 1;
                    let (ra, rb) = (rows_of.get(&a), rows_of.get(&b));
                    if let (Some(ra), Some(rb)) = (ra, rb) {
                        if ra.iter().any(|r| rb.contains(r)) {
                            self.found += 1;
                        }
                    }
                }
            }
        }
    }

    /// Adds one answer side's precision over each distinct id list (a
    /// list repeated across join rows counts once): its id pairs, and
    /// the share of them that are true duplicates.
    pub fn add_precision(&mut self, lists: &[Vec<RecordId>], truth: &Truth) {
        let distinct: FxHashSet<&Vec<RecordId>> = lists.iter().collect();
        for list in distinct {
            let n = list.len() as u64;
            if n < 2 {
                continue;
            }
            let mut by_label: FxHashMap<u32, u64> = FxHashMap::default();
            for &id in list {
                if let Some(l) = truth.label(id) {
                    *by_label.entry(l).or_default() += 1;
                }
            }
            let pairs = n * (n - 1) / 2;
            let true_pairs: u64 = by_label.values().map(|&k| k * (k - 1) / 2).sum();
            self.pairs += pairs;
            self.true_pairs += true_pairs;
            self.grouped_rows += 1;
            self.row_precision += true_pairs as f64 / pairs as f64;
        }
    }

    /// One-line summary for the run's notes.
    pub fn note(&self) -> String {
        format!(
            "  quality: pc {:.4} ({}/{} pairs), precision {:.4} ({} grouped rows), pair precision {:.4} ({}/{} pairs)",
            self.pc(),
            self.found,
            self.relevant,
            self.precision(),
            self.grouped_rows,
            self.pair_precision(),
            self.true_pairs,
            self.pairs
        )
    }

    /// Pair Completeness (1.0 when no true pair was relevant).
    pub fn pc(&self) -> f64 {
        if self.relevant == 0 {
            1.0
        } else {
            self.found as f64 / self.relevant as f64
        }
    }

    /// Pair precision over all answers: the share of same-row id pairs
    /// that are true duplicates (1.0 when the answers held no pair). One
    /// wrongly merged row of k ids adds ~k²/2 false pairs, so a single
    /// closure chain can swing this figure several-fold between seeds.
    pub fn pair_precision(&self) -> f64 {
        if self.pairs == 0 {
            1.0
        } else {
            self.true_pairs as f64 / self.pairs as f64
        }
    }

    /// Precision per grouped row: for each distinct id list of two or
    /// more ids, the share of its id pairs that are true duplicates,
    /// averaged over those lists (1.0 when no answer grouped anything).
    /// Every row weighs the same, so one huge wrongly merged row counts
    /// once rather than by its pair count.
    pub fn precision(&self) -> f64 {
        if self.grouped_rows == 0 {
            1.0
        } else {
            self.row_precision / self.grouped_rows as f64
        }
    }
}

/// Order-insensitive digest of an answer (its sorted rendered rows).
pub fn digest(res: &QueryResult) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    res.columns.hash(&mut h);
    res.canonical_rows().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_id_cells() {
        assert_eq!(id_list(&Value::Int(7)).unwrap(), vec![7]);
        assert_eq!(id_list(&Value::str("3 | 12 | 5")).unwrap(), vec![3, 12, 5]);
        assert!(id_list(&Value::Null).unwrap().is_empty());
        assert!(id_list(&Value::str("3 | x")).is_err());
        assert!(id_list(&Value::Int(-1)).is_err());
    }

    #[test]
    fn sp_selection_property() {
        let lists = vec![vec![0, 4], vec![1], vec![2, 3]];
        assert!(check_sp_selection(&[0, 1, 3], &lists).is_ok());
        // 2 is selected but 4's row also holds it: still one row each.
        assert!(check_sp_selection(&[0, 1, 2, 3, 4], &lists).is_ok());
        assert!(
            check_sp_selection(&[0, 1, 3, 9], &lists).is_err(),
            "missing"
        );
        let dup = vec![vec![0, 4], vec![4, 1], vec![3]];
        assert!(check_sp_selection(&[0, 1, 3], &dup).is_err(), "two rows");
        let dup_selected = vec![vec![0, 1], vec![1], vec![3]];
        assert!(check_sp_selection(&[0, 1, 3], &dup_selected).is_err());
        assert!(check_sp_selection(&[0, 1], &lists).is_err(), "spurious row");
    }

    #[test]
    fn spj_selection_property() {
        let left = vec![vec![0, 4], vec![0, 4], vec![1]];
        assert!(check_spj_selection(&[0, 1, 2], &[0, 1], &left).is_ok());
        assert!(check_spj_selection(&[0, 1, 2], &[2], &left).is_err());
        assert!(check_spj_selection(&[0], &[0], &left).is_err());
    }

    /// Hand-computed example. Entities: {0,1,2}, {3,4}, {5}, {6,7}.
    /// Selection {0, 3, 5}. Answer rows: [0,1] [2] [3,4] [5,6].
    ///
    /// Relevant true pairs (a member selected): (0,1) (0,2) from the
    /// first entity, (3,4) from the second; (1,2) and (6,7) touch no
    /// selected id. Found: (0,1) and (3,4) share a row -> pc = 2/3.
    ///
    /// Grouped rows [0,1] (1 of 1 pairs true), [3,4] (1/1), [5,6] (0/1):
    /// precision (1 + 1 + 0) / 3, pair precision 2/3 likewise.
    #[test]
    fn pc_and_precision_by_hand() {
        let truth = Truth::from_labels(vec![0, 0, 0, 3, 3, 5, 6, 6]);
        let lists = vec![vec![0, 1], vec![2], vec![3, 4], vec![5, 6]];
        let mut q = Quality::default();
        q.add_pc(&[0, 3, 5], &lists, &truth);
        q.add_precision(&lists, &truth);
        assert_eq!((q.relevant, q.found), (3, 2));
        assert_eq!((q.pairs, q.true_pairs, q.grouped_rows), (3, 2, 3));
        assert!((q.pc() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.pair_precision() - 2.0 / 3.0).abs() < 1e-12);
        // A wrongly merged row of five ids ({0,1,2} + 3 + 5): 3 of 10
        // pairs true. Per row it counts once: (1 + 1 + 0 + 0.3) / 4;
        // per pair it dominates: (2 + 3) / (3 + 10).
        q.add_precision(&[vec![0, 1, 2, 3, 5]], &truth);
        assert!((q.precision() - 2.3 / 4.0).abs() < 1e-12);
        assert!((q.pair_precision() - 5.0 / 13.0).abs() < 1e-12);
        // A join repeats a list across rows: it counts once.
        let mut j = Quality::default();
        j.add_precision(&[vec![0, 1], vec![0, 1], vec![5, 6], vec![7]], &truth);
        assert_eq!((j.pairs, j.true_pairs, j.grouped_rows), (2, 1, 2));
        assert_eq!(Quality::default().pc(), 1.0);
        assert_eq!(Quality::default().precision(), 1.0);
    }
}

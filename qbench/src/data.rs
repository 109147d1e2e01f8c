//! Seeded inputs: the workloads' tables and their ground truth.

use queryer_common::FxHashMap;
use queryer_datagen::{openaire, person, scholarly, Dataset};
use queryer_storage::{RecordId, Table};

/// Table sizes of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `dsd` (DBLP-Scholar shape, ≈8% duplicates).
    pub dsd: usize,
    /// `ppl` (People, ≈40% duplicates, joins `oao` on `org = name`).
    pub ppl: usize,
    /// `oao` (OpenAIRE organisations, ≈10% duplicates).
    pub oao: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        dsd: 20_000,
        ppl: 20_000,
        oao: 2_000,
    };
    /// Sizes for the smoke tests.
    pub const TINY: Scale = Scale {
        dsd: 800,
        ppl: 800,
        oao: 150,
    };
}

/// Derives an independent per-table seed from the run's seed.
fn sub_seed(seed: u64, table: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(table.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The `dsd` table of a run.
pub fn dsd(scale: Scale, seed: u64) -> Dataset {
    scholarly::dblp_scholar(scale.dsd, sub_seed(seed, 1))
}

/// The `oao` and `ppl` tables of a run (`ppl` draws its `org` values
/// from `oao` names).
pub fn oao_ppl(scale: Scale, seed: u64) -> (Dataset, Dataset) {
    let oao = openaire::organizations(scale.oao, sub_seed(seed, 2));
    let ppl = person::people(scale.ppl, sub_seed(seed, 3), &oao);
    (oao, ppl)
}

/// Label of a deleted row: never a duplicate of anything.
const DELETED: u32 = u32::MAX;

/// Ground truth as one entity label per record, kept current as rows
/// are inserted and deleted. Two live records are true duplicates iff
/// they share a label.
#[derive(Debug, Clone, Default)]
pub struct Truth {
    label: Vec<u32>,
    members: FxHashMap<u32, Vec<RecordId>>,
}

impl Truth {
    /// Truth of a generated dataset: each duplicate cluster gets the
    /// label of its first member, every other record its own id.
    pub fn of(ds: &Dataset) -> Self {
        let mut label: Vec<u32> = (0..ds.len() as u32).collect();
        for c in ds.truth.clusters() {
            for &m in c {
                label[m as usize] = c[0];
            }
        }
        Self::from_labels(label)
    }

    /// Truth from explicit labels (tests).
    pub fn from_labels(label: Vec<u32>) -> Self {
        let mut members: FxHashMap<u32, Vec<RecordId>> = FxHashMap::default();
        for (id, &l) in label.iter().enumerate() {
            if l != DELETED {
                members.entry(l).or_default().push(id as RecordId);
            }
        }
        Self { label, members }
    }

    /// Records covered.
    pub fn len(&self) -> usize {
        self.label.len()
    }

    /// `true` when no record is covered.
    pub fn is_empty(&self) -> bool {
        self.label.is_empty()
    }

    /// Whether `a` and `b` are distinct live records of one entity.
    pub fn is_dup(&self, a: RecordId, b: RecordId) -> bool {
        let (la, lb) = (self.label[a as usize], self.label[b as usize]);
        a != b && la == lb && la != DELETED
    }

    /// Live records of `id`'s entity (empty for a deleted row).
    pub fn entity_of(&self, id: RecordId) -> &[RecordId] {
        self.members
            .get(&self.label[id as usize])
            .map_or(&[], Vec::as_slice)
    }

    /// Entity label of `id` (`None` once deleted).
    pub fn label(&self, id: RecordId) -> Option<u32> {
        let l = self.label[id as usize];
        (l != DELETED).then_some(l)
    }

    /// Appends a record that belongs to `label`'s entity (a fresh entity
    /// when `label` is `None`).
    pub fn push(&mut self, label: Option<u32>) -> RecordId {
        let id = self.label.len() as RecordId;
        let l = label.unwrap_or(id);
        self.label.push(l);
        self.members.entry(l).or_default().push(id);
        id
    }

    /// Marks `id` deleted.
    pub fn delete(&mut self, id: RecordId) {
        let l = std::mem::replace(&mut self.label[id as usize], DELETED);
        if let Some(m) = self.members.get_mut(&l) {
            m.retain(|&x| x != id);
        }
    }
}

/// A table's column names, in order (what `plan_select` needs).
pub fn column_names(table: &Table) -> Vec<String> {
    table
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tracks_inserts_and_deletes() {
        let mut t = Truth::from_labels(vec![0, 0, 2, 3]);
        assert!(t.is_dup(0, 1));
        assert!(!t.is_dup(0, 0));
        assert!(!t.is_dup(1, 2));
        let n = t.push(Some(2));
        assert_eq!(n, 4);
        assert!(t.is_dup(2, 4));
        assert_eq!(t.entity_of(4), &[2, 4]);
        t.delete(2);
        assert!(!t.is_dup(2, 4));
        assert_eq!(t.entity_of(4), &[4]);
        assert_eq!(t.entity_of(2), &[] as &[RecordId]);
        let fresh = t.push(None);
        assert_eq!(t.label(fresh), Some(5));
    }

    #[test]
    fn tables_repeat_per_seed() {
        let a = dsd(Scale::TINY, 4);
        let b = dsd(Scale::TINY, 4);
        let c = dsd(Scale::TINY, 5);
        assert_eq!(a.table.records(), b.table.records());
        assert_ne!(a.table.records(), c.table.records());
        let t = Truth::of(&a);
        let (x, y) = a.truth.pairs().next().expect("dsd has duplicates");
        assert!(t.is_dup(x, y));
    }
}

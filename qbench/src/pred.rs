//! The benchmark's queries, held as structured predicates so the
//! benchmark can compute each selection itself — apart from the
//! engine's parser, binder and filter operators — and render the same
//! predicate as SQL text for the engine.

use queryer_storage::{RecordId, Table, Value};

/// Integer comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `>=`
    Ge,
}

/// A selection predicate over one table's columns. NULLs never pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `col <op> v` on an integer column.
    Cmp(&'static str, CmpOp, i64),
    /// `MOD(col, m) < v`.
    ModLt(&'static str, i64, i64),
    /// `col IN (v, …)`.
    In(&'static str, Vec<i64>),
    /// `col LIKE '%kw%'` (case-sensitive substring).
    Contains(&'static str, String),
    /// Conjunction.
    And(Vec<Pred>),
}

impl Pred {
    /// `lo <= col < hi`.
    pub fn range(col: &'static str, lo: i64, hi: i64) -> Pred {
        Pred::And(vec![
            Pred::Cmp(col, CmpOp::Ge, lo),
            Pred::Cmp(col, CmpOp::Lt, hi),
        ])
    }

    /// SQL text, with columns qualified by `qual` when given.
    pub fn sql(&self, qual: Option<&str>) -> String {
        let col = |c: &str| match qual {
            Some(q) => format!("{q}.{c}"),
            None => c.to_string(),
        };
        match self {
            Pred::Cmp(c, op, v) => {
                let op = match op {
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Eq => "=",
                    CmpOp::Ge => ">=",
                };
                format!("{} {op} {v}", col(c))
            }
            Pred::ModLt(c, m, v) => format!("MOD({}, {m}) < {v}", col(c)),
            Pred::In(c, vs) => {
                let list: Vec<String> = vs.iter().map(i64::to_string).collect();
                format!("{} IN ({})", col(c), list.join(", "))
            }
            Pred::Contains(c, kw) => {
                assert!(
                    kw.chars().all(|ch| ch.is_alphanumeric()),
                    "keywords are plain alphanumerics: {kw:?}"
                );
                format!("{} LIKE '%{kw}%'", col(c))
            }
            Pred::And(ps) => ps
                .iter()
                .map(|p| p.sql(qual))
                .collect::<Vec<_>>()
                .join(" AND "),
        }
    }

    /// Evaluates the predicate on one row of `table`'s schema.
    pub fn eval(&self, table: &Table, row: &[Value]) -> bool {
        let value = |c: &str| {
            let i = table
                .schema()
                .index_of(c)
                .unwrap_or_else(|| panic!("column {c} missing from {}", table.name()));
            &row[i]
        };
        match self {
            Pred::Cmp(c, op, v) => match value(c) {
                Value::Int(x) => match op {
                    CmpOp::Lt => x < v,
                    CmpOp::Le => x <= v,
                    CmpOp::Eq => x == v,
                    CmpOp::Ge => x >= v,
                },
                _ => false,
            },
            Pred::ModLt(c, m, v) => matches!(value(c), Value::Int(x) if x % m < *v),
            Pred::In(c, vs) => matches!(value(c), Value::Int(x) if vs.contains(x)),
            Pred::Contains(c, kw) => matches!(value(c), Value::Str(s) if s.contains(kw.as_str())),
            Pred::And(ps) => ps.iter().all(|p| p.eval(table, row)),
        }
    }

    /// Ids of the rows of `table` the predicate selects, ascending.
    pub fn select(&self, table: &Table) -> Vec<RecordId> {
        table
            .records()
            .iter()
            .enumerate()
            .filter(|(_, r)| self.eval(table, &r.values))
            .map(|(i, _)| i as RecordId)
            .collect()
    }
}

/// An equi-join `left.left_col = right.right_col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Join {
    /// Right table.
    pub right: &'static str,
    /// Join column of the left table.
    pub left_col: &'static str,
    /// Join column of the right table.
    pub right_col: &'static str,
}

/// One `SELECT DEDUP *` query: a selection on `table`, optionally
/// joined with a whole right table.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Label used in reports ("Q1", "point", …).
    pub name: String,
    /// The (left) table the selection applies to.
    pub table: &'static str,
    /// Optional join.
    pub join: Option<Join>,
    /// Selection on `table` (`None` selects every row).
    pub pred: Option<Pred>,
}

impl Query {
    /// SP query.
    pub fn sp(name: impl Into<String>, table: &'static str, pred: Pred) -> Self {
        Self {
            name: name.into(),
            table,
            join: None,
            pred: Some(pred),
        }
    }

    /// SPJ query.
    pub fn spj(name: impl Into<String>, table: &'static str, join: Join, pred: Pred) -> Self {
        Self {
            name: name.into(),
            table,
            join: Some(join),
            pred: Some(pred),
        }
    }

    /// The SQL text sent to the engine.
    pub fn sql(&self) -> String {
        match &self.join {
            None => {
                let w = self
                    .pred
                    .as_ref()
                    .map(|p| format!(" WHERE {}", p.sql(None)));
                format!(
                    "SELECT DEDUP * FROM {}{}",
                    self.table,
                    w.unwrap_or_default()
                )
            }
            Some(j) => {
                let w = self
                    .pred
                    .as_ref()
                    .map(|p| format!(" WHERE {}", p.sql(Some(self.table))));
                format!(
                    "SELECT DEDUP * FROM {l} INNER JOIN {r} ON {l}.{lc} = {r}.{rc}{w}",
                    l = self.table,
                    r = j.right,
                    lc = j.left_col,
                    rc = j.right_col,
                    w = w.unwrap_or_default()
                )
            }
        }
    }

    /// The ids of `table` the selection picks.
    pub fn selection(&self, table: &Table) -> Vec<RecordId> {
        match &self.pred {
            Some(p) => p.select(table),
            None => (0..table.len() as RecordId).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryer_storage::{DataType, Field, Schema};

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("title", DataType::Str),
                Field::new("year", DataType::Int),
            ]),
        );
        for (i, (title, year)) in [
            ("graph mining", Value::Int(2001)),
            ("query graphs", Value::Null),
            ("entity resolution", Value::Int(1999)),
        ]
        .into_iter()
        .enumerate()
        {
            t.push_row(vec![Value::Int(i as i64), Value::str(title), year])
                .unwrap();
        }
        t.push_row(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        t
    }

    #[test]
    fn renders_sql() {
        let p = Pred::And(vec![
            Pred::range("id", 3, 9),
            Pred::Contains("title", "graph".into()),
        ]);
        assert_eq!(p.sql(None), "id >= 3 AND id < 9 AND title LIKE '%graph%'");
        assert_eq!(Pred::ModLt("id", 10, 1).sql(Some("p")), "MOD(p.id, 10) < 1");
        assert_eq!(Pred::In("id", vec![1, 4]).sql(None), "id IN (1, 4)");
        let q = Query::spj(
            "j",
            "ppl",
            Join {
                right: "oao",
                left_col: "org",
                right_col: "name",
            },
            Pred::Cmp("id", CmpOp::Lt, 7),
        );
        assert_eq!(
            q.sql(),
            "SELECT DEDUP * FROM ppl INNER JOIN oao ON ppl.org = oao.name WHERE ppl.id < 7"
        );
    }

    #[test]
    fn evaluates_with_nulls_failing() {
        let t = table();
        assert_eq!(Pred::Cmp("year", CmpOp::Le, 2001).select(&t), vec![0, 2]);
        assert_eq!(
            Pred::Contains("title", "graph".into()).select(&t),
            vec![0, 1]
        );
        assert_eq!(Pred::ModLt("id", 2, 1).select(&t), vec![0, 2]);
        assert_eq!(Pred::In("id", vec![1, 2, 9]).select(&t), vec![1, 2]);
        assert_eq!(Pred::range("id", 1, 3).select(&t), vec![1, 2]);
        assert_eq!(Pred::Cmp("id", CmpOp::Eq, 2).select(&t), vec![2]);
    }
}

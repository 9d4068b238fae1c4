//! Operations resolved from XUIS markup.
//!
//! "Archived applications are associated with a number of archived
//! datasets using a mark-up syntax that we have defined for 'operations'
//! in the XUIS" — a many-to-many coupling: one operation may apply to
//! many datasets (via `<if>` conditions), and one dataset may offer many
//! operations.

use easia_xuis::{Condition, Operation, XuisDoc};

/// The operation catalog for one XUIS document.
#[derive(Debug, Clone, Default)]
pub struct OperationCatalog {
    entries: Vec<CatalogEntry>,
}

/// One operation attached to a table/column.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Owning table.
    pub table: String,
    /// Owning column (a DATALINK column).
    pub column: String,
    /// The operation definition.
    pub op: Operation,
}

/// The operations one result set's rows may offer, from
/// [`OperationCatalog::resolve`].
pub struct RowOperations<'a> {
    candidates: Vec<Candidate<'a>>,
}

/// An operation of the table the viewer may run, if its conditions hold.
struct Candidate<'a> {
    op: &'a Operation,
    conditions: Vec<ResolvedCondition<'a>>,
}

/// An `<if>` condition with its colid resolved against the result.
struct ResolvedCondition<'a> {
    /// Positions of the result columns the colid names. A colid the
    /// result does not carry names none, and fails on every row.
    columns: Vec<usize>,
    /// Required text.
    eq: &'a str,
}

impl<'a> RowOperations<'a> {
    /// The operations applicable to one row: those whose every
    /// condition finds its text in a column it names. `cell_is(i, text)`
    /// says whether the row's column `i` displays as `text`.
    pub fn for_row(&self, mut cell_is: impl FnMut(usize, &str) -> bool) -> Vec<&'a Operation> {
        self.candidates
            .iter()
            .filter(|c| {
                c.conditions
                    .iter()
                    .all(|cond| cond.columns.iter().any(|&i| cell_is(i, cond.eq)))
            })
            .map(|c| c.op)
            .collect()
    }
}

impl OperationCatalog {
    /// Build the catalog from a XUIS document.
    pub fn from_xuis(doc: &XuisDoc) -> Self {
        let mut entries = Vec::new();
        for t in &doc.tables {
            for c in &t.columns {
                for op in &c.operations {
                    entries.push(CatalogEntry {
                        table: t.name.clone(),
                        column: c.name.clone(),
                        op: op.clone(),
                    });
                }
            }
        }
        OperationCatalog { entries }
    }

    /// All entries.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Operations applicable to a given row of `table`, observing the
    /// `<if>` conditions and the guest-access policy. `row` is
    /// `(colid, value)` pairs as the result renderer sees them.
    pub fn applicable(
        &self,
        table: &str,
        row: &[(String, String)],
        is_guest: bool,
    ) -> Vec<&CatalogEntry> {
        self.entries
            .iter()
            .filter(|e| e.table.eq_ignore_ascii_case(table))
            .filter(|e| !is_guest || e.op.guest_access)
            .filter(|e| e.op.applies_to(row))
            .collect()
    }

    /// The per-result-set half of [`OperationCatalog::applicable`]: the
    /// entries for `table` under the guest policy, each `<if>` condition
    /// resolved to the positions of the result `columns` it tests, so a
    /// row is judged without naming its columns again.
    pub fn resolve(&self, table: &str, columns: &[String], is_guest: bool) -> RowOperations<'_> {
        let resolved = |cond: &Condition| -> Vec<usize> {
            let named = |c: &String| format!("{table}.{c}").eq_ignore_ascii_case(&cond.colid);
            columns
                .iter()
                .enumerate()
                .filter_map(|(i, c)| named(c).then_some(i))
                .collect()
        };
        let candidates = self
            .entries
            .iter()
            .filter(|e| e.table.eq_ignore_ascii_case(table))
            .filter(|e| !is_guest || e.op.guest_access)
            .map(|e| Candidate {
                op: &e.op,
                conditions: e
                    .op
                    .conditions
                    .iter()
                    .map(|cond| ResolvedCondition {
                        columns: resolved(cond),
                        eq: &cond.eq,
                    })
                    .collect(),
            })
            .collect();
        RowOperations { candidates }
    }

    /// Look up an operation by table + name (for invocation).
    pub fn find(&self, table: &str, name: &str) -> Option<&CatalogEntry> {
        self.entries
            .iter()
            .find(|e| e.table.eq_ignore_ascii_case(table) && e.op.name == name)
    }

    /// Validate user-submitted parameter values against the operation's
    /// declared widgets; returns the offending field on failure. This is
    /// the server-side re-check of the generated HTML form.
    pub fn validate_params(
        op: &Operation,
        values: &std::collections::BTreeMap<String, String>,
    ) -> Result<(), String> {
        for p in &op.parameters {
            let field = p.widget.field_name();
            let Some(v) = values.get(field) else {
                return Err(format!("missing parameter {field}"));
            };
            if let Some(allowed) = p.widget.allowed_values() {
                if !allowed.contains(&v.as_str()) {
                    return Err(format!("parameter {field}: {v:?} not among {allowed:?}"));
                }
            }
        }
        // Reject unexpected extra fields: the form never produces them.
        for k in values.keys() {
            if !op.parameters.iter().any(|p| p.widget.field_name() == k) {
                return Err(format!("unexpected parameter {k}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easia_xuis::{Condition, Location, Param, Widget, XuisColumn, XuisTable};
    use std::collections::BTreeMap;

    fn doc() -> XuisDoc {
        let mut col = XuisColumn {
            name: "DOWNLOAD_RESULT".into(),
            colid: "RESULT_FILE.DOWNLOAD_RESULT".into(),
            type_name: "DATALINK".into(),
            size: None,
            alias: None,
            hidden: false,
            pk_refby: vec![],
            fk: None,
            samples: vec![],
            operations: vec![],
            upload: None,
        };
        col.operations.push(Operation {
            name: "GetImage".into(),
            op_type: "EPC".into(),
            filename: "GetImage.epc".into(),
            format: "tar.ez".into(),
            guest_access: true,
            conditions: vec![Condition {
                colid: "RESULT_FILE.SIMULATION_KEY".into(),
                eq: "S1".into(),
            }],
            location: Location::Url("x".into()),
            description: None,
            parameters: vec![Param {
                description: "slice".into(),
                widget: Widget::Select {
                    name: "slice".into(),
                    size: 4,
                    options: vec![("x0".into(), "x0".into()), ("x1".into(), "x1".into())],
                },
            }],
        });
        col.operations.push(Operation {
            name: "Stats".into(),
            op_type: "NATIVE".into(),
            filename: "stats".into(),
            format: "raw".into(),
            guest_access: false,
            conditions: vec![],
            location: Location::Url("x".into()),
            description: None,
            parameters: vec![],
        });
        XuisDoc {
            tables: vec![XuisTable {
                name: "RESULT_FILE".into(),
                primary_key: vec![],
                alias: None,
                hidden: false,
                columns: vec![col],
            }],
        }
    }

    fn row(sim: &str) -> Vec<(String, String)> {
        vec![("RESULT_FILE.SIMULATION_KEY".to_string(), sim.to_string())]
    }

    #[test]
    fn catalog_built() {
        let cat = OperationCatalog::from_xuis(&doc());
        assert_eq!(cat.entries().len(), 2);
        assert!(cat.find("result_file", "GetImage").is_some());
        assert!(cat.find("RESULT_FILE", "Nope").is_none());
    }

    #[test]
    fn conditions_restrict_applicability() {
        let cat = OperationCatalog::from_xuis(&doc());
        let on_s1 = cat.applicable("RESULT_FILE", &row("S1"), false);
        assert_eq!(on_s1.len(), 2);
        let on_s2 = cat.applicable("RESULT_FILE", &row("S2"), false);
        assert_eq!(on_s2.len(), 1, "GetImage conditioned on S1");
        assert_eq!(on_s2[0].op.name, "Stats");
    }

    #[test]
    fn guest_policy_enforced() {
        let cat = OperationCatalog::from_xuis(&doc());
        let guest_ops = cat.applicable("RESULT_FILE", &row("S1"), true);
        assert_eq!(guest_ops.len(), 1);
        assert_eq!(guest_ops[0].op.name, "GetImage");
    }

    #[test]
    fn param_validation() {
        let cat = OperationCatalog::from_xuis(&doc());
        let op = &cat.find("RESULT_FILE", "GetImage").unwrap().op;
        let mut vals = BTreeMap::new();
        assert!(OperationCatalog::validate_params(op, &vals)
            .unwrap_err()
            .contains("missing"));
        vals.insert("slice".to_string(), "x9".to_string());
        assert!(OperationCatalog::validate_params(op, &vals)
            .unwrap_err()
            .contains("not among"));
        vals.insert("slice".to_string(), "x1".to_string());
        assert!(OperationCatalog::validate_params(op, &vals).is_ok());
        vals.insert("evil".to_string(), "1".to_string());
        assert!(OperationCatalog::validate_params(op, &vals)
            .unwrap_err()
            .contains("unexpected"));
    }
}

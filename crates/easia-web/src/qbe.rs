//! The generated QBE query form and its translation to SQL.
//!
//! "On the query form, the user selects the fields to be returned. Also
//! for each field present, restrictions including wildcards may be put
//! on the values of the data. Other features to aid direct searching -
//! restrictions and sample values from drop-down lists - choices of
//! attribute names, relation names and operators."
//!
//! Form field convention for column `C`: `ret_C` (return checkbox),
//! `op_C` (operator), `val_C` (restriction value). The translation
//! produces parameterised SQL — form values never enter the SQL text.

use crate::html::escape;
use easia_db::Value;
use easia_xuis::XuisTable;
use std::collections::BTreeMap;

/// Operators offered in the form's drop-down.
pub const OPERATORS: [&str; 7] = ["EQ", "NE", "LT", "LE", "GT", "GE", "LIKE"];

/// Errors translating a form submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QbeError {
    /// Unknown operator token.
    BadOperator(String),
    /// Value not parseable for the column's type.
    BadValue {
        /// Column name.
        column: String,
        /// Offending text.
        value: String,
    },
    /// No such column in the table spec.
    UnknownColumn(String),
}

impl std::fmt::Display for QbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QbeError::BadOperator(o) => write!(f, "unknown operator {o:?}"),
            QbeError::BadValue { column, value } => {
                write!(f, "value {value:?} is not valid for column {column}")
            }
            QbeError::UnknownColumn(c) => write!(f, "unknown column {c}"),
        }
    }
}

impl std::error::Error for QbeError {}

/// Render the query form for a table, with operator drop-downs and the
/// XUIS sample values as suggestion lists.
pub fn render_query_form(table: &XuisTable) -> String {
    let mut out = format!(
        "<form method=\"post\" action=\"/query/{}\"><table>\
         <tr><th>Return</th><th>Field</th><th>Operator</th><th>Restriction</th><th>Samples</th></tr>",
        escape(&table.name)
    );
    for col in table.visible_columns() {
        let ops: String = OPERATORS
            .iter()
            .map(|o| format!("<option value=\"{o}\">{}</option>", op_symbol(o)))
            .collect();
        let datalist_id = format!("samples_{}", col.name);
        let datalist: String = if col.samples.is_empty() {
            String::new()
        } else {
            let opts: String = col
                .samples
                .iter()
                .map(|s| format!("<option value=\"{}\"/>", escape(s)))
                .collect();
            format!("<datalist id=\"{datalist_id}\">{opts}</datalist>")
        };
        let samples_label = if col.samples.is_empty() {
            String::new()
        } else {
            escape(&col.samples.join(", "))
        };
        out.push_str(&format!(
            "<tr><td><input type=\"checkbox\" name=\"ret_{n}\" checked=\"checked\"/></td>\
             <td>{label}</td>\
             <td><select name=\"op_{n}\"><option value=\"\"></option>{ops}</select></td>\
             <td><input type=\"text\" name=\"val_{n}\" list=\"{datalist_id}\"/>{datalist}</td>\
             <td>{samples_label}</td></tr>",
            n = escape(&col.name),
            label = escape(col.display_name()),
        ));
    }
    out.push_str(
        "</table><p><input type=\"submit\" value=\"Search\"/> \
         <input type=\"submit\" name=\"all\" value=\"All data\"/></p></form>",
    );
    out
}

fn op_symbol(op: &str) -> &'static str {
    match op {
        "EQ" => "=",
        "NE" => "&lt;&gt;",
        "LT" => "&lt;",
        "LE" => "&lt;=",
        "GT" => "&gt;",
        "GE" => "&gt;=",
        "LIKE" => "LIKE",
        _ => "?",
    }
}

fn sql_op(op: &str) -> Option<&'static str> {
    Some(match op {
        "EQ" => "=",
        "NE" => "<>",
        "LT" => "<",
        "LE" => "<=",
        "GT" => ">",
        "GE" => ">=",
        "LIKE" => "LIKE",
        _ => return None,
    })
}

/// What one pass over a form submission yields, in column order.
struct FormPass<'t> {
    /// The visible columns ticked `ret_C`.
    returned: Vec<&'t str>,
    /// A `{qualifier}C <op> ?` conjunct per non-empty `val_C`…
    conjuncts: Vec<String>,
    /// …and its typed parameter.
    params: Vec<Value>,
}

fn read_form<'t>(
    table: &'t XuisTable,
    form: &BTreeMap<String, String>,
    qualifier: &str,
) -> Result<FormPass<'t>, QbeError> {
    let mut returned: Vec<&str> = Vec::new();
    let mut conjuncts: Vec<String> = Vec::new();
    let mut params: Vec<Value> = Vec::new();
    let all = form.contains_key("all");
    for col in &table.columns {
        if col.hidden {
            continue;
        }
        if form.contains_key(&format!("ret_{}", col.name)) {
            returned.push(&col.name);
        }
        let val = form
            .get(&format!("val_{}", col.name))
            .map(String::as_str)
            .unwrap_or("")
            .trim();
        if val.is_empty() || all {
            continue;
        }
        let op_token = form
            .get(&format!("op_{}", col.name))
            .map(String::as_str)
            .unwrap_or("");
        let op_token = if op_token.is_empty() {
            // Default: wildcards imply LIKE, otherwise equality.
            if val.contains('%') || val.contains('_') {
                "LIKE"
            } else {
                "EQ"
            }
        } else {
            op_token
        };
        let op = sql_op(op_token).ok_or_else(|| QbeError::BadOperator(op_token.to_string()))?;
        let param = typed_value(col, val)?;
        conjuncts.push(format!("{qualifier}{} {op} ?", col.name));
        params.push(param);
    }
    Ok(FormPass {
        returned,
        conjuncts,
        params,
    })
}

/// Translate a form submission to `(sql, params)`.
///
/// * columns with `ret_C` present are returned (all columns if none),
/// * columns with a non-empty `val_C` contribute a WHERE conjunct using
///   `op_C` (default `EQ`; `LIKE` if the value contains wildcards),
/// * numeric columns get their values parsed, so type errors surface as
///   [`QbeError::BadValue`] rather than SQL failures.
pub fn build_query(
    table: &XuisTable,
    form: &BTreeMap<String, String>,
) -> Result<(String, Vec<Value>), QbeError> {
    let FormPass {
        returned,
        conjuncts,
        params,
    } = read_form(table, form, "")?;
    let select_list = if returned.is_empty() || returned.len() == table.columns.len() {
        "*".to_string()
    } else {
        returned.join(", ")
    };
    let mut sql = format!("SELECT {select_list} FROM {}", table.name);
    if !conjuncts.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conjuncts.join(" AND "));
    }
    // Stable presentation order.
    if let Some(pk) = table.primary_key.first() {
        if let Some((_, col)) = pk.rsplit_once('.') {
            sql.push_str(&format!(" ORDER BY {col}"));
        }
    }
    Ok((sql, params))
}

/// FK columns of `table` that configure a substitute display column:
/// `(column, referenced_table, referenced_column, substitute_column)`.
pub fn fk_substitutes(table: &XuisTable) -> Vec<(String, String, String, String)> {
    let mut out = Vec::new();
    for col in &table.columns {
        let Some(fk) = &col.fk else { continue };
        let Some(subst) = &fk.substcolumn else {
            continue;
        };
        let Some((ref_table, ref_col)) = fk.tablecolumn.rsplit_once('.') else {
            continue;
        };
        let Some((_, subst_col)) = subst.rsplit_once('.') else {
            continue;
        };
        out.push((
            col.name.clone(),
            ref_table.to_string(),
            ref_col.to_string(),
            subst_col.to_string(),
        ));
    }
    out
}

/// Every table a QBE/browse query for `table` touches: the table
/// itself plus each FK-substitute referenced table. The caller routes
/// the query through the federation when any of them is federated.
pub fn join_tables(table: &XuisTable) -> Vec<String> {
    let mut out = vec![table.name.clone()];
    for (_, ref_table, _, _) in fk_substitutes(table) {
        if !out.contains(&ref_table) {
            out.push(ref_table);
        }
    }
    out
}

/// Project and join the FK substitutes onto a base select: appends
/// `SUB{i}.{subst} AS {col}__SUBST` items and the matching
/// `LEFT JOIN {ref_table} SUB{i} ON T.{col} = SUB{i}.{ref_col}` legs
/// for every substitute whose FK column the query returns.
fn push_subst_joins(
    table: &XuisTable,
    returned: &[&str],
    select_list: &mut Vec<String>,
    joins: &mut String,
) {
    for (i, (col, ref_table, ref_col, subst_col)) in fk_substitutes(table).iter().enumerate() {
        if !returned.is_empty() && !returned.contains(&col.as_str()) {
            continue;
        }
        select_list.push(format!("SUB{i}.{subst_col} AS {col}__SUBST"));
        joins.push_str(&format!(
            " LEFT JOIN {ref_table} SUB{i} ON T.{col} = SUB{i}.{ref_col}"
        ));
    }
}

/// Like [`build_query`], but FK columns with a substitute display
/// column LEFT JOIN their referenced table and project the substitute
/// as `{col}__SUBST`, so the human-readable value arrives with the
/// same statement — executed locally or federated — instead of a
/// hub-only post-pass lookup. Tables without substitutes degenerate to
/// the single-table shape of [`build_query`].
pub fn build_join_query(
    table: &XuisTable,
    form: &BTreeMap<String, String>,
) -> Result<(String, Vec<Value>), QbeError> {
    if fk_substitutes(table).is_empty() {
        return build_query(table, form);
    }
    let FormPass {
        mut returned,
        conjuncts,
        params,
    } = read_form(table, form, "T.")?;
    if returned.len() == table.columns.len() {
        returned.clear(); // everything checked == everything returned
    }
    let mut select_list = if returned.is_empty() {
        vec!["T.*".to_string()]
    } else {
        returned.iter().map(|c| format!("T.{c}")).collect()
    };
    let mut joins = String::new();
    push_subst_joins(table, &returned, &mut select_list, &mut joins);
    let mut sql = format!(
        "SELECT {} FROM {} T{joins}",
        select_list.join(", "),
        table.name
    );
    if !conjuncts.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conjuncts.join(" AND "));
    }
    if let Some(pk) = table.primary_key.first() {
        if let Some((_, col)) = pk.rsplit_once('.') {
            sql.push_str(&format!(" ORDER BY T.{col}"));
        }
    }
    Ok((sql, params))
}

/// The browse-hyperlink query (`WHERE {column} = ?`) with the same
/// FK-substitute joins as [`build_join_query`]. Tables without
/// substitutes keep the plain single-table shape.
pub fn build_browse_query(table: &XuisTable, column: &str) -> String {
    if fk_substitutes(table).is_empty() {
        return format!("SELECT * FROM {} WHERE {column} = ?", table.name);
    }
    let mut select_list = vec!["T.*".to_string()];
    let mut joins = String::new();
    push_subst_joins(table, &[], &mut select_list, &mut joins);
    format!(
        "SELECT {} FROM {} T{joins} WHERE T.{column} = ?",
        select_list.join(", "),
        table.name
    )
}

fn typed_value(col: &easia_xuis::XuisColumn, text: &str) -> Result<Value, QbeError> {
    match col.type_name.as_str() {
        "INTEGER" | "TIMESTAMP" => {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| QbeError::BadValue {
                    column: col.name.clone(),
                    value: text.to_string(),
                })
        }
        "DOUBLE" => text
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|_| QbeError::BadValue {
                column: col.name.clone(),
                value: text.to_string(),
            }),
        "BOOLEAN" => match text.to_ascii_lowercase().as_str() {
            "true" | "1" | "yes" => Ok(Value::Bool(true)),
            "false" | "0" | "no" => Ok(Value::Bool(false)),
            _ => Err(QbeError::BadValue {
                column: col.name.clone(),
                value: text.to_string(),
            }),
        },
        _ => Ok(Value::Str(text.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easia_xuis::{XuisColumn, XuisTable};

    fn table() -> XuisTable {
        let col = |name: &str, ty: &str, size: Option<usize>| XuisColumn {
            name: name.into(),
            colid: format!("SIMULATION.{name}"),
            type_name: ty.into(),
            size,
            alias: None,
            hidden: false,
            pk_refby: vec![],
            fk: None,
            samples: if name == "TITLE" {
                vec!["Channel flow".into()]
            } else {
                vec![]
            },
            operations: vec![],
            upload: None,
        };
        XuisTable {
            name: "SIMULATION".into(),
            primary_key: vec!["SIMULATION.SIMULATION_KEY".into()],
            alias: None,
            hidden: false,
            columns: vec![
                col("SIMULATION_KEY", "VARCHAR", Some(30)),
                col("TITLE", "VARCHAR", Some(200)),
                col("GRID_SIZE", "INTEGER", None),
            ],
        }
    }

    fn form(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn form_renders_fields_operators_samples() {
        let html = render_query_form(&table());
        assert!(html.contains("name=\"ret_TITLE\""));
        assert!(html.contains("name=\"op_GRID_SIZE\""));
        assert!(html.contains("name=\"val_SIMULATION_KEY\""));
        assert!(html.contains("Channel flow"), "sample values shown");
        assert!(html.contains("LIKE"));
        assert!(html.contains("All data"));
    }

    #[test]
    fn all_columns_when_everything_checked() {
        let f = form(&[
            ("ret_SIMULATION_KEY", "on"),
            ("ret_TITLE", "on"),
            ("ret_GRID_SIZE", "on"),
        ]);
        let (sql, params) = build_query(&table(), &f).unwrap();
        assert_eq!(sql, "SELECT * FROM SIMULATION ORDER BY SIMULATION_KEY");
        assert!(params.is_empty());
    }

    #[test]
    fn projection_subset() {
        let f = form(&[("ret_TITLE", "on")]);
        let (sql, _) = build_query(&table(), &f).unwrap();
        assert!(sql.starts_with("SELECT TITLE FROM SIMULATION"));
    }

    #[test]
    fn restrictions_and_params() {
        let f = form(&[
            ("ret_TITLE", "on"),
            ("op_TITLE", "LIKE"),
            ("val_TITLE", "%flow%"),
            ("op_GRID_SIZE", "GE"),
            ("val_GRID_SIZE", "256"),
        ]);
        let (sql, params) = build_query(&table(), &f).unwrap();
        assert!(sql.contains("TITLE LIKE ?"));
        assert!(sql.contains("GRID_SIZE >= ?"));
        assert!(sql.contains(" AND "));
        assert_eq!(params, vec![Value::Str("%flow%".into()), Value::Int(256)]);
    }

    #[test]
    fn default_operator_infers_like_for_wildcards() {
        let f = form(&[("val_TITLE", "Chan%")]);
        let (sql, _) = build_query(&table(), &f).unwrap();
        assert!(sql.contains("TITLE LIKE ?"), "{sql}");
        let f = form(&[("val_TITLE", "Channel flow")]);
        let (sql, _) = build_query(&table(), &f).unwrap();
        assert!(sql.contains("TITLE = ?"), "{sql}");
    }

    #[test]
    fn all_data_ignores_restrictions() {
        let f = form(&[("all", "All data"), ("val_TITLE", "x")]);
        let (sql, params) = build_query(&table(), &f).unwrap();
        assert!(!sql.contains("WHERE"));
        assert!(params.is_empty());
    }

    #[test]
    fn typed_value_errors() {
        let f = form(&[("val_GRID_SIZE", "not-a-number")]);
        assert!(matches!(
            build_query(&table(), &f).unwrap_err(),
            QbeError::BadValue { .. }
        ));
        let f = form(&[("op_TITLE", "FROB"), ("val_TITLE", "x")]);
        assert!(matches!(
            build_query(&table(), &f).unwrap_err(),
            QbeError::BadOperator(_)
        ));
    }

    #[test]
    fn sql_injection_is_inert() {
        // Malicious text ends up as a parameter, never in the SQL text.
        let f = form(&[("val_TITLE", "'; DROP TABLE SIMULATION; --")]);
        let (sql, params) = build_query(&table(), &f).unwrap();
        assert!(!sql.contains("DROP"));
        assert_eq!(params[0], Value::Str("'; DROP TABLE SIMULATION; --".into()));
    }

    /// A RESULT_FILE-shaped table whose SIMULATION_KEY FK substitutes
    /// the referenced simulation's TITLE.
    fn fk_table() -> XuisTable {
        let mut t = table();
        t.name = "RESULT_FILE".into();
        t.primary_key = vec!["RESULT_FILE.RESULT_FILE_KEY".into()];
        t.columns[0].name = "RESULT_FILE_KEY".into();
        t.columns[1].name = "SIMULATION_KEY".into();
        t.columns[1].fk = Some(easia_xuis::FkSpec {
            tablecolumn: "SIMULATION.SIMULATION_KEY".into(),
            substcolumn: Some("SIMULATION.TITLE".into()),
        });
        t.columns[2].name = "SIZE_B".into();
        t
    }

    #[test]
    fn join_query_projects_fk_substitute_via_left_join() {
        let f = form(&[("op_SIZE_B", "GE"), ("val_SIZE_B", "100")]);
        let (sql, params) = build_join_query(&fk_table(), &f).unwrap();
        assert_eq!(
            sql,
            "SELECT T.*, SUB0.TITLE AS SIMULATION_KEY__SUBST FROM RESULT_FILE T \
             LEFT JOIN SIMULATION SUB0 ON T.SIMULATION_KEY = SUB0.SIMULATION_KEY \
             WHERE T.SIZE_B >= ? ORDER BY T.RESULT_FILE_KEY"
        );
        assert_eq!(params, vec![Value::Int(100)]);
    }

    #[test]
    fn join_query_omits_subst_when_fk_column_not_returned() {
        let f = form(&[("ret_RESULT_FILE_KEY", "on")]);
        let (sql, _) = build_join_query(&fk_table(), &f).unwrap();
        assert_eq!(
            sql,
            "SELECT T.RESULT_FILE_KEY FROM RESULT_FILE T ORDER BY T.RESULT_FILE_KEY"
        );
    }

    #[test]
    fn join_query_without_substitutes_matches_plain_build_query() {
        let f = form(&[("val_TITLE", "x")]);
        assert_eq!(
            build_join_query(&table(), &f).unwrap(),
            build_query(&table(), &f).unwrap()
        );
    }

    #[test]
    fn browse_query_carries_the_same_joins() {
        assert_eq!(
            build_browse_query(&fk_table(), "RESULT_FILE_KEY"),
            "SELECT T.*, SUB0.TITLE AS SIMULATION_KEY__SUBST FROM RESULT_FILE T \
             LEFT JOIN SIMULATION SUB0 ON T.SIMULATION_KEY = SUB0.SIMULATION_KEY \
             WHERE T.RESULT_FILE_KEY = ?"
        );
        assert_eq!(
            build_browse_query(&table(), "SIMULATION_KEY"),
            "SELECT * FROM SIMULATION WHERE SIMULATION_KEY = ?"
        );
    }

    #[test]
    fn join_tables_lists_table_and_fk_targets() {
        assert_eq!(
            join_tables(&fk_table()),
            vec!["RESULT_FILE".to_string(), "SIMULATION".to_string()]
        );
        assert_eq!(join_tables(&table()), vec!["SIMULATION".to_string()]);
    }

    #[test]
    fn hidden_columns_excluded() {
        let mut t = table();
        t.columns[1].hidden = true;
        let html = render_query_form(&t);
        assert!(!html.contains("ret_TITLE"));
        let f = form(&[("ret_TITLE", "on"), ("val_TITLE", "x")]);
        let (sql, params) = build_query(&t, &f).unwrap();
        assert!(!sql.contains("TITLE ="), "{sql}");
        assert!(params.is_empty());
    }
}

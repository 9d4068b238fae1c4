//! Result-table rendering with the paper's browsing hyperlinks.
//!
//! "Browsing is based on hypertext links in search results":
//! * **foreign-key browsing** — "selecting a link on an AUTHOR_KEY value
//!   will retrieve full details of the author",
//! * **primary-key browsing** — "SIMULATION_KEY links to three tables
//!   where it appears as a foreign key",
//! * **BLOB and CLOB** — "hypertext link displays size of object",
//! * **DATALINK** — "hypertext link ... contains an encrypted key,
//!   required to access the file from the remote file server",
//! * plus the operations column: "result table showing operations
//!   available for post-processing datasets".

use crate::html::{escape_into, format_size};
use crate::http::url_encode_into;
use easia_db::{ResultSet, Value};
use easia_xuis::{Operation, XuisColumn, XuisDoc, XuisTable};
use std::borrow::Cow;

/// Everything the renderer needs besides the rows.
pub struct BrowseContext<'a> {
    /// The interface specification.
    pub xuis: &'a XuisDoc,
    /// Table the results came from.
    pub table: &'a str,
    /// Whether the viewer is a guest (downloads hidden, restricted
    /// operations filtered).
    pub is_guest: bool,
    /// Operations applicable per row, already filtered by conditions and
    /// guest policy (supplied by the ops catalog).
    pub row_operations: Vec<Vec<&'a Operation>>,
    /// File size lookup for DATALINK URLs (stored form).
    #[allow(clippy::type_complexity)]
    pub file_size: Option<&'a dyn Fn(&str) -> Option<u64>>,
}

/// Render a result set to an HTML table with browsing links.
pub fn render_results(ctx: &BrowseContext<'_>, rs: &ResultSet) -> String {
    let mut out = String::new();
    render_results_into(ctx, rs, &mut out);
    out
}

/// [`render_results`] appended to `out` — a page shell already holding
/// what precedes the table.
pub fn render_results_into(ctx: &BrowseContext<'_>, rs: &ResultSet, out: &mut String) {
    // A table the XUIS does not know renders as plain text throughout.
    let xt = ctx.xuis.table(ctx.table);
    let plans: Vec<ColumnPlan<'_>> = rs
        .columns
        .iter()
        .map(|c| ColumnPlan::new(xt, c, rs))
        .collect();
    let key = xt.map(|xt| key_plan(xt, rs)).unwrap_or_default();
    let has_ops = xt.is_some() && ctx.row_operations.iter().any(|ops| !ops.is_empty());
    let mut op_href = String::from("/op/");
    url_encode_into(&mut op_href, ctx.table);
    op_href.push('/');

    out.push_str("<table><tr>");
    for plan in &plans {
        out.push_str("<th>");
        escape_into(out, plan.header);
        out.push_str("</th>");
    }
    if has_ops {
        out.push_str("<th>Operations</th>");
    }
    out.push_str("</tr>");
    // Text of a non-string value on its way into the page.
    let mut scratch = String::new();
    for (ri, row) in rs.rows.iter().enumerate() {
        let row_start = out.len();
        out.push_str("<tr>");
        for (v, plan) in row.iter().zip(&plans) {
            out.push_str("<td>");
            if xt.is_some() && v.is_null() {
                out.push_str("<i>null</i>");
            } else if plan.described {
                render_cell(out, ctx, plan, &key, v, row, &mut scratch);
            } else {
                escape_into(out, v.display_text(&mut scratch));
            }
            out.push_str("</td>");
        }
        if has_ops {
            out.push_str("<td>");
            let ops = ctx.row_operations.get(ri).map(Vec::as_slice).unwrap_or(&[]);
            let dataset = if ops.is_empty() {
                Cow::Borrowed("")
            } else {
                primary_datalink(row)
            };
            for (n, op) in ops.iter().enumerate() {
                if n > 0 {
                    out.push_str(" | ");
                }
                out.push_str("<a href=\"");
                out.push_str(&op_href);
                url_encode_into(out, &op.name);
                out.push_str("?dataset=");
                url_encode_into(out, &dataset);
                out.push_str("\">");
                escape_into(out, &op.name);
                out.push_str("</a>");
            }
            out.push_str("</td>");
        }
        out.push_str("</tr>");
        if ri == 0 {
            // Rows of one result are much alike: room for the rest at
            // the first one's size and an eighth more, taken once.
            let rest = (out.len() - row_start) * (rs.rows.len() - 1);
            out.reserve(rest + rest / 8);
        }
    }
    out.push_str("</table>");
}

/// What the cells of one result column need beyond their value, worked
/// out once per result set. The strings are ready for the page: URL
/// encoding leaves nothing for HTML escaping to do, and labels are
/// escaped here.
struct ColumnPlan<'a> {
    /// Column heading.
    header: &'a str,
    /// Whether the XUIS describes the column; one it does not is plain
    /// text.
    described: bool,
    /// `/lob/<table>/<column>?`: a BLOB/CLOB link up to the row's key.
    lob_href: String,
    /// Foreign-key browsing: `/browse/fk/<target>?value=` and where the
    /// `__SUBST` companion carrying the display label sits, if present.
    fk: Option<(String, Option<usize>)>,
    /// Primary-key browsing, per referencing table:
    /// `/browse/pk/<target>?value=` and the `→TABLE` label.
    pk_links: Vec<(String, String)>,
}

impl<'a> ColumnPlan<'a> {
    fn new(xt: Option<&'a XuisTable>, column: &'a str, rs: &ResultSet) -> Self {
        let mut plan = ColumnPlan {
            header: column,
            described: false,
            lob_href: String::new(),
            fk: None,
            pk_links: Vec::new(),
        };
        let Some((xt, xc)) = xt.and_then(|xt| Some((xt, xt.column(column)?))) else {
            return plan;
        };
        plan.header = xc.display_name();
        plan.described = true;
        plan.lob_href.push_str("/lob/");
        url_encode_into(&mut plan.lob_href, &xt.name);
        plan.lob_href.push('/');
        url_encode_into(&mut plan.lob_href, &xc.name);
        plan.lob_href.push('?');
        let browse = |kind: &str, target: &str| {
            let mut href = format!("/browse/{kind}/");
            url_encode_into(&mut href, target);
            href.push_str("?value=");
            href
        };
        plan.fk = xc
            .fk
            .as_ref()
            .map(|fk| (browse("fk", &fk.tablecolumn), subst_position(rs, xc)));
        for target in &xc.pk_refby {
            let tname = target.split('.').next().unwrap_or(target);
            let mut label = String::from("→");
            escape_into(&mut label, tname);
            plan.pk_links.push((browse("pk", target), label));
        }
        plan
    }
}

/// `NAME__SUBST` companion columns carry substitute display values (the
/// XUIS `substcolumn` feature); the query layer adds them via a join.
fn subst_position(rs: &ResultSet, xc: &XuisColumn) -> Option<usize> {
    let want = format!("{}__SUBST", xc.name);
    rs.columns.iter().position(|c| *c == want)
}

/// The primary-key columns the result carries, as (URL-encoded name,
/// position): what identifies a row in a `/lob/` link, e.g.
/// `FILE_NAME=t000.edf&SIMULATION_KEY=S1`.
fn key_plan(xt: &XuisTable, rs: &ResultSet) -> Vec<(String, usize)> {
    let mut key = Vec::new();
    for pk in &xt.primary_key {
        let col = pk.rsplit_once('.').map(|(_, c)| c).unwrap_or(pk);
        if let Some(i) = rs.columns.iter().position(|c| c == col) {
            let mut name = String::new();
            url_encode_into(&mut name, col);
            key.push((name, i));
        }
    }
    key
}

/// The row's first DATALINK value in its stored form, used as the
/// dataset identifier when invoking operations.
fn primary_datalink(row: &[Value]) -> Cow<'_, str> {
    row.iter()
        .find_map(|v| match v {
            // Strip any access token: dataset identity is the stored URL.
            Value::Datalink(url) => Some(strip_token(url)),
            _ => None,
        })
        .unwrap_or_default()
}

fn strip_token(url: &str) -> Cow<'_, str> {
    match url.rsplit_once('/') {
        Some((dir, file)) => match file.split_once(';') {
            Some((_token, real)) => Cow::Owned(format!("{dir}/{real}")),
            None => Cow::Borrowed(url),
        },
        None => Cow::Borrowed(url),
    }
}

/// One non-NULL cell of a column the XUIS describes.
fn render_cell(
    out: &mut String,
    ctx: &BrowseContext<'_>,
    plan: &ColumnPlan<'_>,
    key: &[(String, usize)],
    v: &Value,
    row: &[Value],
    scratch: &mut String,
) {
    // DATALINK: download link (with token already spliced by the
    // database layer) labelled with the file size; guests see a
    // restriction notice instead — "guest users cannot download
    // datasets".
    if let Value::Datalink(url) = v {
        let stored = strip_token(url);
        let size = ctx.file_size.and_then(|f| f(&stored)).map(format_size);
        let size = size.as_deref().unwrap_or("download");
        if ctx.is_guest {
            out.push_str("<i>download restricted (");
            out.push_str(size);
            out.push_str(")</i>");
        } else {
            out.push_str("<a href=\"");
            escape_into(out, url);
            out.push_str("\">");
            out.push_str(size);
            out.push_str("</a>");
        }
        return;
    }
    // BLOB/CLOB: size link that rematerialises the object.
    if matches!(v, Value::Blob(_) | Value::Clob(_)) {
        out.push_str("<a href=\"");
        out.push_str(&plan.lob_href);
        for (n, (name, pos)) in key.iter().enumerate() {
            if n > 0 {
                out.push_str("&amp;");
            }
            out.push_str(name);
            out.push('=');
            url_encode_into(out, row[*pos].display_text(scratch));
        }
        out.push_str("\">");
        out.push_str(&format_size(v.lob_size().unwrap_or(0) as u64));
        out.push_str("</a>");
        return;
    }
    // Foreign-key browsing.
    if let Some((href, subst)) = &plan.fk {
        out.push_str("<a href=\"");
        out.push_str(href);
        url_encode_into(out, v.display_text(scratch));
        out.push_str("\">");
        let label = subst.map(|i| &row[i]).filter(|l| !l.is_null()).unwrap_or(v);
        escape_into(out, label.display_text(scratch));
        out.push_str("</a>");
        return;
    }
    escape_into(out, v.display_text(scratch));
    // Primary-key browsing: one link per referencing table.
    for (href, label) in &plan.pk_links {
        out.push_str(" <a href=\"");
        out.push_str(href);
        url_encode_into(out, v.display_text(scratch));
        out.push_str("\">");
        out.push_str(label);
        out.push_str("</a>");
    }
}

/// Hide `NAME__SUBST` helper columns from a rendered result set (the
/// caller renders from the original; this helps when echoing raw SQL
/// results).
pub fn visible_columns(rs: &ResultSet) -> Vec<usize> {
    rs.columns
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.ends_with("__SUBST"))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use easia_xuis::{FkSpec, XuisColumn};

    fn xuis() -> XuisDoc {
        let col = |name: &str, ty: &str| XuisColumn {
            name: name.into(),
            colid: format!("RESULT_FILE.{name}"),
            type_name: ty.into(),
            size: None,
            alias: None,
            hidden: false,
            pk_refby: vec![],
            fk: None,
            samples: vec![],
            operations: vec![],
            upload: None,
        };
        let mut file_name = col("FILE_NAME", "VARCHAR");
        file_name.pk_refby = vec!["VISUALISATION_FILE.FILE_NAME".into()];
        let mut sim_key = col("SIMULATION_KEY", "VARCHAR");
        sim_key.fk = Some(FkSpec {
            tablecolumn: "SIMULATION.SIMULATION_KEY".into(),
            substcolumn: None,
        });
        let notes = col("NOTES", "CLOB");
        let download = col("DOWNLOAD_RESULT", "DATALINK");
        XuisDoc {
            tables: vec![XuisTable {
                name: "RESULT_FILE".into(),
                primary_key: vec![
                    "RESULT_FILE.FILE_NAME".into(),
                    "RESULT_FILE.SIMULATION_KEY".into(),
                ],
                alias: None,
                hidden: false,
                columns: vec![file_name, sim_key, notes, download],
            }],
        }
    }

    fn results() -> ResultSet {
        ResultSet {
            columns: vec![
                "FILE_NAME".into(),
                "SIMULATION_KEY".into(),
                "NOTES".into(),
                "DOWNLOAD_RESULT".into(),
            ],
            rows: vec![vec![
                Value::Str("t000.edf".into()),
                Value::Str("S1".into()),
                Value::Clob("x".repeat(2048)),
                Value::Datalink("http://fs1/data/TOK123;t000.edf".into()),
            ]],
            affected: 0,
        }
    }

    fn ctx(doc: &XuisDoc, guest: bool) -> BrowseContext<'_> {
        BrowseContext {
            xuis: doc,
            table: "RESULT_FILE",
            is_guest: guest,
            row_operations: vec![vec![]],
            file_size: None,
        }
    }

    #[test]
    fn fk_browsing_link() {
        let doc = xuis();
        let html = render_results(&ctx(&doc, false), &results());
        assert!(
            html.contains("/browse/fk/SIMULATION.SIMULATION_KEY?value=S1"),
            "{html}"
        );
    }

    #[test]
    fn pk_browsing_links() {
        let doc = xuis();
        let html = render_results(&ctx(&doc, false), &results());
        assert!(
            html.contains("/browse/pk/VISUALISATION_FILE.FILE_NAME?value=t000.edf"),
            "{html}"
        );
        assert!(html.contains("→VISUALISATION_FILE"));
    }

    #[test]
    fn clob_size_link() {
        let doc = xuis();
        let html = render_results(&ctx(&doc, false), &results());
        assert!(html.contains("2.0 KB"), "{html}");
        assert!(
            html.contains("/lob/RESULT_FILE/NOTES?FILE_NAME=t000.edf&amp;SIMULATION_KEY=S1"),
            "{html}"
        );
    }

    #[test]
    fn datalink_link_with_token_and_size() {
        let doc = xuis();
        let sizes = |url: &str| {
            assert_eq!(url, "http://fs1/data/t000.edf", "token stripped for lookup");
            Some(85_000_000u64)
        };
        let c = BrowseContext {
            file_size: Some(&sizes),
            ..ctx(&doc, false)
        };
        let html = render_results(&c, &results());
        assert!(
            html.contains("href=\"http://fs1/data/TOK123;t000.edf\""),
            "{html}"
        );
        assert!(html.contains("85.0 MB"));
    }

    #[test]
    fn guests_cannot_download() {
        let doc = xuis();
        let html = render_results(&ctx(&doc, true), &results());
        assert!(!html.contains("href=\"http://fs1"), "{html}");
        assert!(html.contains("download restricted"));
    }

    #[test]
    fn operations_column() {
        let doc = xuis();
        let op = Operation {
            name: "GetImage".into(),
            op_type: "EPC".into(),
            filename: "g.epc".into(),
            format: "raw".into(),
            guest_access: true,
            conditions: vec![],
            location: easia_xuis::Location::Url("x".into()),
            description: None,
            parameters: vec![],
        };
        let c = BrowseContext {
            row_operations: vec![vec![&op]],
            ..ctx(&doc, false)
        };
        let html = render_results(&c, &results());
        assert!(html.contains("<th>Operations</th>"));
        assert!(
            html.contains("/op/RESULT_FILE/GetImage?dataset=http%3A%2F%2Ffs1%2Fdata%2Ft000.edf"),
            "dataset id is the stored (token-free) URL: {html}"
        );
    }

    #[test]
    fn null_rendering_and_unknown_table() {
        let doc = xuis();
        let mut rs = results();
        rs.rows[0][2] = Value::Null;
        let html = render_results(&ctx(&doc, false), &rs);
        assert!(html.contains("<i>null</i>"));
        // Unknown table: plain rendering, no panic.
        let c = BrowseContext {
            table: "NOPE",
            ..ctx(&doc, false)
        };
        let html = render_results(&c, &rs);
        assert!(html.contains("S1"));
    }

    #[test]
    fn subst_column_replaces_label() {
        let doc = xuis();
        let mut rs = results();
        rs.columns.push("SIMULATION_KEY__SUBST".into());
        rs.rows[0].push(Value::Str("Channel flow Re360".into()));
        let html = render_results(&ctx(&doc, false), &rs);
        assert!(html.contains(">Channel flow Re360</a>"), "{html}");
        assert_eq!(visible_columns(&rs), vec![0, 1, 2, 3]);
    }
}

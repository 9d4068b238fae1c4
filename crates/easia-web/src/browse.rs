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

use crate::html::{escape_into, format_size_into};
use crate::http::url_encode_into;
use easia_db::value::{truncated, Cell, CellWalk, Records};
use easia_db::{DbError, ResultSet};
use easia_xuis::{Operation, XuisColumn, XuisDoc, XuisTable};

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
    /// guest policy (supplied by the ops catalog), for
    /// [`render_results`]; a [`ResultTable`] is handed each row's.
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
/// what precedes the table: each row encoded as the record a screen
/// reads and rendered through [`ResultTable`], offering its operations
/// from [`BrowseContext::row_operations`].
pub fn render_results_into(ctx: &BrowseContext<'_>, rs: &ResultSet, out: &mut String) {
    let mut records = Records::default();
    rs.rows.iter().for_each(|row| records.push(row));
    let has_ops = ctx.row_operations.iter().any(|ops| !ops.is_empty());
    let mut table = ResultTable::begin(ctx, &rs.columns, records.len(), has_ops, out);
    for (ri, record) in records.iter().enumerate() {
        let ops = ctx.row_operations.get(ri).map(Vec::as_slice).unwrap_or(&[]);
        // A record encoded from values always walks.
        if table.row(out, record, ops.iter().copied()).is_err() {
            break;
        }
    }
    table.end(out);
}

/// The one row renderer of every result screen: the table's head, then
/// each row as it is handed over, as its record, then its end. A row is
/// rendered from its cells' bytes — text escaped and URL-encoded
/// straight from its payload, a number written as its value displays, a
/// large object's size its payload's length, a number no link needs
/// written without an escape pass — and no value is built for a cell.
/// The text a row has in common with every other is built once per
/// result, as each column's fragments when the table begins
/// (`<td><a href="/browse/fk/…?value=`, a primary-key link's `">→T</a>`);
/// a row's operations cell is pushed whole when it offers, on no dataset,
/// the operations the last such row offered. A row pushes only those
/// fragments and its own cells, encoded, and allocates nothing but the
/// page's own growth.
pub struct ResultTable<'c> {
    ctx: &'c BrowseContext<'c>,
    /// The XUIS describes the table; a table it does not know renders as
    /// plain text throughout.
    described: bool,
    plans: Vec<ColumnPlan<'c>>,
    key: Vec<(String, usize)>,
    has_ops: bool,
    /// `/op/<table>/`.
    op_href: String,
    /// The operations the last row offered on no dataset (their
    /// addresses) and the inside of its operations cell, which a row
    /// offering the same ones on no dataset copies.
    last_ops: (Vec<usize>, String),
    /// Rows of the result, and rows rendered so far.
    rows: usize,
    rendered: usize,
    scratch: Scratch,
}

/// What a row is rendered through, refilled row after row.
#[derive(Default)]
struct Scratch {
    /// Where each cell of the row in hand lies.
    walk: CellWalk,
    /// A non-string cell's text on its way into the page.
    text: String,
    /// A DATALINK URL in its stored form.
    stored: String,
}

/// The cells of the row in hand: its record and where they lie in it.
#[derive(Clone, Copy)]
struct RowCells<'r> {
    record: &'r [u8],
    walk: &'r CellWalk,
}

impl<'r> RowCells<'r> {
    fn get(self, i: usize) -> Option<Cell<'r>> {
        self.walk.cell(self.record, i)
    }
}

impl<'c> ResultTable<'c> {
    /// Open the table of a result of `rows` rows over `columns`: its
    /// head, with an operations column if `has_ops` and the XUIS knows
    /// the table.
    pub fn begin(
        ctx: &'c BrowseContext<'c>,
        columns: &'c [String],
        rows: usize,
        has_ops: bool,
        out: &mut String,
    ) -> Self {
        let xt = ctx.xuis.table(ctx.table);
        let plans: Vec<ColumnPlan<'_>> = columns
            .iter()
            .map(|c| ColumnPlan::new(xt, c, columns))
            .collect();
        let mut op_href = String::from("/op/");
        url_encode_into(&mut op_href, ctx.table);
        op_href.push('/');
        out.push_str("<table><tr>");
        for plan in &plans {
            out.push_str("<th>");
            escape_into(out, plan.header);
            out.push_str("</th>");
        }
        let has_ops = xt.is_some() && has_ops;
        if has_ops {
            out.push_str("<th>Operations</th>");
        }
        out.push_str("</tr>");
        ResultTable {
            ctx,
            described: xt.is_some(),
            plans,
            key: xt.map(|xt| key_plan(xt, columns)).unwrap_or_default(),
            has_ops,
            op_href,
            last_ops: Default::default(),
            rows,
            rendered: 0,
            scratch: Scratch::default(),
        }
    }

    /// Render the row of `record`, an `encode_row` record, offering `ops`
    /// in its operations column. A record that does not walk, that holds
    /// fewer cells than the result has columns, or whose text is not
    /// UTF-8, is the error [`easia_db::value::decode_row`] would raise
    /// for it; what it left in `out` is no page.
    pub fn row<'o>(
        &mut self,
        out: &mut String,
        record: &[u8],
        ops: impl IntoIterator<Item = &'o Operation, IntoIter: Clone>,
    ) -> Result<(), DbError> {
        let Scratch { walk, text, stored } = &mut self.scratch;
        walk.walk(record)?;
        let row = RowCells { record, walk };
        let row_start = out.len();
        out.push_str("<tr>");
        for (i, plan) in self.plans.iter().enumerate() {
            let cell = row.get(i).ok_or_else(truncated)?;
            if self.described && cell.is_null() {
                out.push_str("<td><i>null</i></td>");
            } else if plan.described {
                render_cell(out, self.ctx, &self.key, plan, cell, row, text, stored)?;
            } else {
                out.push_str("<td>");
                if !cell.number_into(out) {
                    escape_into(out, cell.display_text(text)?);
                }
                out.push_str("</td>");
            }
        }
        if self.has_ops {
            let ops = ops.into_iter();
            let dataset = match ops.clone().next() {
                Some(_) => primary_datalink(row, stored)?,
                None => "",
            };
            // Rows offering the same operations on no dataset show the same
            // cell; a dataset is each row's own, so its cell is built.
            let (last, html) = &mut self.last_ops;
            let address = |op: &Operation| op as *const Operation as usize;
            out.push_str("<td>");
            if dataset.is_empty() && ops.clone().map(address).eq(last.iter().copied()) {
                out.push_str(html);
            } else {
                let at = out.len();
                for (n, op) in ops.clone().enumerate() {
                    out.push_str(if n > 0 { " | <a href=\"" } else { "<a href=\"" });
                    out.push_str(&self.op_href);
                    url_encode_into(out, &op.name);
                    out.push_str("?dataset=");
                    url_encode_into(out, dataset);
                    out.push_str("\">");
                    escape_into(out, &op.name);
                    out.push_str("</a>");
                }
                if dataset.is_empty() {
                    last.clear();
                    last.extend(ops.map(address));
                    html.clear();
                    html.push_str(&out[at..]);
                }
            }
            out.push_str("</td>");
        }
        out.push_str("</tr>");
        if self.rendered == 0 {
            // Rows of one result are much alike: room for the rest at
            // the first one's size and an eighth more, taken once.
            let rest = (out.len() - row_start) * self.rows.saturating_sub(1);
            out.reserve(rest + rest / 8);
        }
        self.rendered += 1;
        Ok(())
    }

    /// Close the table.
    pub fn end(self, out: &mut String) {
        out.push_str("</table>");
    }
}

/// One non-NULL cell of a column the XUIS describes, `<td>` to `</td>`;
/// `key` is the result's [`key_plan`], `text` and `stored` scratch.
#[allow(clippy::too_many_arguments)]
fn render_cell(
    out: &mut String,
    ctx: &BrowseContext<'_>,
    key: &[(String, usize)],
    plan: &ColumnPlan<'_>,
    v: Cell<'_>,
    row: RowCells<'_>,
    text: &mut String,
    stored: &mut String,
) -> Result<(), DbError> {
    // DATALINK: download link (with token already spliced by the
    // database layer) labelled with the file size; guests see a
    // restriction notice instead — "guest users cannot download
    // datasets".
    if let Some(url) = v.datalink()? {
        let stored = stored_form(url, stored);
        let size = ctx.file_size.and_then(|f| f(stored));
        let size = |out: &mut String| match size {
            Some(bytes) => format_size_into(out, bytes),
            None => out.push_str("download"),
        };
        if ctx.is_guest {
            out.push_str("<td><i>download restricted (");
            size(out);
            out.push_str(")</i></td>");
        } else {
            out.push_str("<td><a href=\"");
            escape_into(out, url);
            out.push_str("\">");
            size(out);
            out.push_str("</a></td>");
        }
        return Ok(());
    }
    // BLOB/CLOB: size link that rematerialises the object.
    if let Some(size) = v.lob_size() {
        out.push_str("<td><a href=\"");
        out.push_str(&plan.lob_href);
        for (n, (name, pos)) in key.iter().enumerate() {
            if n > 0 {
                out.push_str("&amp;");
            }
            out.push_str(name);
            out.push('=');
            if let Some(cell) = row.get(*pos) {
                url_encode_into(out, cell.display_text(text)?);
            }
        }
        out.push_str("\">");
        format_size_into(out, size as u64);
        out.push_str("</a></td>");
        return Ok(());
    }
    // Foreign-key browsing.
    if let Some((head, subst)) = &plan.fk {
        out.push_str(head);
        let shown = v.display_text(text)?;
        url_encode_into(out, shown);
        out.push_str("\">");
        match subst.and_then(|i| row.get(i)).filter(|l| !l.is_null()) {
            Some(label) => escape_into(out, label.display_text(text)?),
            None => escape_into(out, shown),
        }
        out.push_str("</a></td>");
        return Ok(());
    }
    out.push_str("<td>");
    // A number with no link to write is written as it is: nothing to escape.
    if !(plan.pk_links.is_empty() && v.number_into(out)) {
        let shown = v.display_text(text)?;
        escape_into(out, shown);
        // Primary-key browsing: one link per referencing table.
        for (head, tail) in &plan.pk_links {
            out.push_str(head);
            url_encode_into(out, shown);
            out.push_str(tail);
        }
    }
    out.push_str("</td>");
    Ok(())
}

/// What the cells of one result column need beyond their value, worked
/// out once per result set as the fragments a cell is written from. The
/// strings are ready for the page: URL encoding leaves nothing for HTML
/// escaping to do, and labels are escaped here.
struct ColumnPlan<'a> {
    /// Column heading.
    header: &'a str,
    /// Whether the XUIS describes the column; one it does not is plain
    /// text.
    described: bool,
    /// `/lob/<table>/<column>?`: a BLOB/CLOB link up to the row's key.
    lob_href: String,
    /// Foreign-key browsing: the cell up to its value,
    /// `<td><a href="/browse/fk/<target>?value=`, and where the
    /// `__SUBST` companion carrying the display label sits, if present.
    fk: Option<(String, Option<usize>)>,
    /// Primary-key browsing, per referencing table: the link up to the
    /// value, ` <a href="/browse/pk/<target>?value=`, and after it,
    /// `">→TABLE</a>`.
    pk_links: Vec<(String, String)>,
}

impl<'a> ColumnPlan<'a> {
    fn new(xt: Option<&'a XuisTable>, column: &'a str, columns: &[String]) -> Self {
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
        let browse = |open: &str, kind: &str, target: &str| {
            let mut head = format!("{open}<a href=\"/browse/{kind}/");
            url_encode_into(&mut head, target);
            head.push_str("?value=");
            head
        };
        plan.fk = (xc.fk.as_ref()).map(|fk| {
            (
                browse("<td>", "fk", &fk.tablecolumn),
                subst_position(columns, xc),
            )
        });
        for target in &xc.pk_refby {
            let tname = target.split('.').next().unwrap_or(target);
            let mut tail = String::from("\">→");
            escape_into(&mut tail, tname);
            tail.push_str("</a>");
            plan.pk_links.push((browse(" ", "pk", target), tail));
        }
        plan
    }
}

/// `NAME__SUBST` companion columns carry substitute display values (the
/// XUIS `substcolumn` feature); the query layer adds them via a join.
fn subst_position(columns: &[String], xc: &XuisColumn) -> Option<usize> {
    let want = format!("{}__SUBST", xc.name);
    columns.iter().position(|c| *c == want)
}

/// The primary-key columns the result carries, as (URL-encoded name,
/// position): what identifies a row in a `/lob/` link, e.g.
/// `FILE_NAME=t000.edf&SIMULATION_KEY=S1`.
fn key_plan(xt: &XuisTable, columns: &[String]) -> Vec<(String, usize)> {
    let mut key = Vec::new();
    for pk in &xt.primary_key {
        let col = pk.rsplit_once('.').map(|(_, c)| c).unwrap_or(pk);
        if let Some(i) = columns.iter().position(|c| c == col) {
            let mut name = String::new();
            url_encode_into(&mut name, col);
            key.push((name, i));
        }
    }
    key
}

/// The row's first DATALINK value in its stored form ([`stored_form`]),
/// used as the dataset identifier when invoking operations.
fn primary_datalink<'s>(row: RowCells<'s>, scratch: &'s mut String) -> Result<&'s str, DbError> {
    for i in 0..row.walk.len() {
        if let Some(url) = row.get(i).map(Cell::datalink).transpose()?.flatten() {
            return Ok(stored_form(url, scratch));
        }
    }
    Ok("")
}

/// `url` without its access token — dataset identity is the stored URL:
/// `dir/token;file` is `dir/file`, written into `scratch`.
fn stored_form<'s>(url: &'s str, scratch: &'s mut String) -> &'s str {
    let Some((dir, (_token, file))) = url
        .rsplit_once('/')
        .and_then(|(dir, file)| Some((dir, file.split_once(';')?)))
    else {
        return url;
    };
    scratch.clear();
    scratch.push_str(dir);
    scratch.push('/');
    scratch.push_str(file);
    scratch
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
    use easia_db::Value;
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

    /// A record cut short, or holding text that is not UTF-8, is the
    /// row's error, never a panic.
    #[test]
    fn a_damaged_record_is_an_error() {
        let doc = xuis();
        let c = ctx(&doc, false);
        let rs = results();
        let mut record = Vec::new();
        easia_db::value::encode_row(&rs.rows[0], &mut record);
        let mut out = String::new();
        let mut table = ResultTable::begin(&c, &rs.columns, 1, false, &mut out);
        for cut in [1, 7, record.len() - 1] {
            assert!(
                table.row(&mut out, &record[..cut], []).is_err(),
                "cut at {cut}"
            );
        }
        let at = record.windows(2).position(|w| w == b"t0").unwrap();
        record[at] = 0xFF;
        assert!(table.row(&mut out, &record, []).is_err());
    }

    /// A record with fewer cells than the result has columns is the
    /// decoder's error for a record cut short, not a short row.
    #[test]
    fn a_narrow_record_is_an_error() {
        let doc = xuis();
        let c = ctx(&doc, false);
        let columns = ["FILE_NAME", "SIMULATION_KEY", "NOTES"].map(String::from);
        let mut record = Vec::new();
        let cells = [Value::Str("t000.edf".into()), Value::Str("S1".into())];
        easia_db::value::encode_row(&cells, &mut record);
        let mut out = String::new();
        let mut table = ResultTable::begin(&c, &columns, 1, false, &mut out);
        let err = table.row(&mut out, &record, []).unwrap_err();
        assert_eq!(err.to_string(), easia_db::value::truncated().to_string());
        assert!(!out.ends_with("</tr>"), "no short row: {out}");
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

//! The result-page renderer against the renderer it grew from.
//!
//! `mod parent` below is `ResultTable` as it stood before numbers were
//! written without an escape pass, a foreign key's text was read once
//! and the operations cell was built without a per-operation link
//! cache: its per-cell renderer, column plans and operations cell,
//! copied verbatim (only the `use` lines name the crate from outside).
//! Every generated result — XUIS tables of every column kind, `__SUBST`
//! companions at any position, NULLs in every kind, cells whose kind
//! their column's type does not name, text holding `<&"'>`, a guest and
//! an administrator, operations offered on rows with and without a
//! dataset — must render to the same page through
//! `browse::render_results` as through that renderer.

use easia_db::value::Records;
use easia_db::{ResultSet, Value};
use easia_web::browse::{render_results, BrowseContext};
use easia_xuis::{FkSpec, Location, Operation, XuisColumn, XuisDoc, XuisTable};
use proptest::prelude::*;

/// The renderer result pages were written with before.
#[allow(clippy::all)]
mod parent {
    use easia_db::value::{Cell, CellWalk};
    use easia_db::DbError;
    use easia_web::browse::BrowseContext;
    use easia_web::html::{escape_into, format_size_into};
    use easia_web::http::url_encode_into;
    use easia_xuis::{Operation, XuisColumn, XuisTable};

    /// The one row renderer of every result screen: the table's head, then
    /// each row as it is handed over, as its record, then its end. A row is
    /// rendered from its cells' bytes — text escaped and URL-encoded
    /// straight from its payload, a number written as its value displays, a
    /// large object's size its payload's length — and no value is built for
    /// a cell. The text a row has in common with every other is built once
    /// per result, as fragments: each column's, when the table begins
    /// (`<td><a href="/browse/fk/…?value=`, a primary-key link's
    /// `">→T</a>`), and each operation's, the first time a row offers it
    /// (`<a href="/op/T/Op?dataset=` and `">Op</a>`); a row's operations cell
    /// is pushed whole when it offers, on no dataset, the operations the last
    /// such row offered. A row pushes only those fragments and its own
    /// cells, encoded, and allocates nothing but the page's own growth.
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
        /// The link of each operation a row has offered so far.
        op_links: Vec<OpLink>,
        ops_cell: OpsCell,
        /// Rows of the result, and rows rendered so far.
        rows: usize,
        rendered: usize,
        scratch: Scratch,
    }

    /// An operation's link in the operations column, around the dataset it
    /// is offered on.
    struct OpLink {
        name: String,
        /// `<a href="/op/<table>/<op>?dataset=`.
        head: String,
        /// `">Op</a>`.
        tail: String,
    }

    impl OpLink {
        /// The link of `op` in `links`, built and filed the first time it is
        /// asked for; `op_href` is `/op/<table>/`.
        fn of<'l>(links: &'l mut Vec<OpLink>, op_href: &str, op: &Operation) -> &'l OpLink {
            let at = match links.iter().position(|l| l.name == op.name) {
                Some(at) => at,
                None => {
                    let mut head = format!("<a href=\"{op_href}");
                    url_encode_into(&mut head, &op.name);
                    head.push_str("?dataset=");
                    let mut tail = String::from("\">");
                    escape_into(&mut tail, &op.name);
                    tail.push_str("</a>");
                    let name = op.name.clone();
                    links.push(OpLink { name, head, tail });
                    links.len() - 1
                }
            };
            &links[at]
        }
    }

    /// The operations cell the last row with no dataset rendered, and the
    /// operations it offers: a row offering the same ones on no dataset
    /// pushes it as it is.
    #[derive(Default)]
    struct OpsCell {
        /// The address of each operation offered, in order.
        ops: Vec<usize>,
        /// `<td>` to `</td>`; empty until a row renders it.
        html: String,
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
                op_links: Vec::new(),
                ops_cell: OpsCell::default(),
                rows,
                rendered: 0,
                scratch: Scratch::default(),
            }
        }

        /// Render the row of `record`, an `encode_row` record, offering `ops`
        /// in its operations column. A record that does not walk, or whose
        /// text is not UTF-8, is the error [`easia_db::value::decode_row`]
        /// would raise for it; what it left in `out` is no page.
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
                let Some(cell) = row.get(i) else { break };
                if self.described && cell.is_null() {
                    out.push_str("<td><i>null</i></td>");
                } else if plan.described {
                    render_cell(out, self.ctx, &self.key, plan, cell, row, text, stored)?;
                } else {
                    out.push_str("<td>");
                    escape_into(out, cell.display_text(text)?);
                    out.push_str("</td>");
                }
            }
            if self.has_ops {
                let ops = ops.into_iter();
                let dataset = match ops.clone().next() {
                    Some(_) => primary_datalink(row, stored)?,
                    None => "",
                };
                // Without a dataset a row's cell is its operations' alone, and
                // rows offering the same ones show the same cell; a dataset is
                // each row's own, so its cell is built.
                let cell = &mut self.ops_cell;
                let address = |op: &Operation| op as *const Operation as usize;
                let reused = dataset.is_empty()
                    && !cell.html.is_empty()
                    && ops.clone().map(address).eq(cell.ops.iter().copied());
                if reused {
                    out.push_str(&cell.html);
                } else {
                    let at = out.len();
                    out.push_str("<td>");
                    for (n, op) in ops.clone().enumerate() {
                        if n > 0 {
                            out.push_str(" | ");
                        }
                        let link = OpLink::of(&mut self.op_links, &self.op_href, op);
                        out.push_str(&link.head);
                        url_encode_into(out, dataset);
                        out.push_str(&link.tail);
                    }
                    out.push_str("</td>");
                    if dataset.is_empty() {
                        cell.ops.clear();
                        cell.ops.extend(ops.map(address));
                        cell.html.clear();
                        cell.html.push_str(&out[at..]);
                    }
                }
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
            url_encode_into(out, v.display_text(text)?);
            out.push_str("\">");
            let label = subst.and_then(|i| row.get(i)).filter(|l| !l.is_null());
            escape_into(out, label.unwrap_or(v).display_text(text)?);
            out.push_str("</a></td>");
            return Ok(());
        }
        out.push_str("<td>");
        let shown = v.display_text(text)?;
        escape_into(out, shown);
        // Primary-key browsing: one link per referencing table.
        for (head, tail) in &plan.pk_links {
            out.push_str(head);
            url_encode_into(out, shown);
            out.push_str(tail);
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
    fn primary_datalink<'s>(
        row: RowCells<'s>,
        scratch: &'s mut String,
    ) -> Result<&'s str, DbError> {
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
}

/// `render_results` as it stood, through the parent's table.
fn parent_page(ctx: &BrowseContext<'_>, rs: &ResultSet) -> String {
    let mut out = String::new();
    let mut records = Records::default();
    rs.rows.iter().for_each(|row| records.push(row));
    let has_ops = ctx.row_operations.iter().any(|ops| !ops.is_empty());
    let mut table = parent::ResultTable::begin(ctx, &rs.columns, records.len(), has_ops, &mut out);
    for (ri, record) in records.iter().enumerate() {
        let ops = ctx.row_operations.get(ri).map(Vec::as_slice).unwrap_or(&[]);
        if table.row(&mut out, record, ops.iter().copied()).is_err() {
            break;
        }
    }
    table.end(&mut out);
    out
}

/// Decisions drawn from one seed, and text drawn from generated strings.
struct Draw {
    state: u64,
    texts: Vec<String>,
}

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        (self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n.max(1)
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn text(&mut self) -> String {
        let at = self.below(self.texts.len());
        self.texts.get(at).cloned().unwrap_or_default()
    }
}

const TYPES: [&str; 8] = [
    "VARCHAR",
    "INTEGER",
    "DOUBLE",
    "CLOB",
    "BLOB",
    "DATALINK",
    "TIMESTAMP",
    "BOOLEAN",
];

/// A value of kind `kind` (the `TYPES` order), or NULL.
fn value(d: &mut Draw, kind: usize) -> Value {
    if d.chance(20) {
        return Value::Null;
    }
    let n = d.below(2_000_000) as i64 - 1_000_000;
    match kind {
        0 => Value::Str(d.text()),
        1 => Value::Int([n, i64::MIN, i64::MAX, 0, 7, -10][d.below(6)]),
        2 => Value::Double([n as f64 / 8.0, 1e20, -0.0, f64::NAN, 1e15, 2.5e-7][d.below(6)]),
        3 => Value::Clob(d.text().repeat(d.below(400))),
        4 => Value::Blob(vec![7; d.below(3_000)]),
        5 => match d.below(3) {
            0 => Value::Datalink(format!("http://fs1/{}/TOK{};{}", d.text(), n, d.text())),
            1 => Value::Datalink(format!("http://fs1/{}", d.text())),
            _ => Value::Datalink(d.text()),
        },
        6 => Value::Timestamp(n),
        _ => Value::Bool(n % 2 == 0),
    }
}

fn operation(name: String) -> Operation {
    Operation {
        name,
        op_type: "NATIVE".into(),
        filename: "op".into(),
        format: "raw".into(),
        guest_access: true,
        conditions: vec![],
        location: Location::Url("native:op".into()),
        description: None,
        parameters: vec![],
    }
}

/// One generated screen: its XUIS, table, result and operations pool.
struct Screen {
    doc: XuisDoc,
    table: String,
    rs: ResultSet,
    ops: Vec<Operation>,
    guest: bool,
}

fn screen(d: &mut Draw) -> Screen {
    let table = ["RESULT_FILE", "T<&>\"'é", "a b"][d.below(3)].to_string();
    let mut columns = Vec::new();
    let mut described = Vec::new();
    let mut kinds = Vec::new();
    for c in 0..1 + d.below(6) {
        let name = format!("C{c}{}", ["", "<&>", " é", "\"'"][d.below(4)]);
        // The kind of its cells: its type's mostly, another's at times.
        let ty = d.below(TYPES.len());
        kinds.push(if d.chance(85) {
            ty
        } else {
            d.below(TYPES.len())
        });
        let mut xc = XuisColumn {
            name: name.clone(),
            colid: format!("{table}.{name}"),
            type_name: TYPES[ty].into(),
            size: None,
            alias: d.chance(20).then(|| d.text()),
            hidden: false,
            pk_refby: (0..[0, 0, 1, 2][d.below(4)])
                .map(|k| format!("REF{k}{}.{}", d.text(), d.text()))
                .collect(),
            fk: None,
            samples: vec![],
            operations: vec![],
            upload: None,
        };
        if d.chance(35) {
            let target = format!("P{}.K{}", d.text(), d.text());
            xc.fk = Some(FkSpec {
                tablecolumn: target,
                substcolumn: None,
            });
        }
        columns.push(name);
        if d.chance(85) {
            described.push(xc);
        }
    }
    // `__SUBST` companions at any position, for a foreign key or not.
    for c in 0..columns.len() {
        if d.chance(30) {
            let at = d.below(columns.len() + 1);
            columns.insert(at, format!("{}__SUBST", columns[c]));
            kinds.insert(at, [0, 1, 5][d.below(3)]);
        }
    }
    let primary_key = (0..d.below(3))
        .map(|_| {
            let column = columns[d.below(columns.len())].clone();
            match d.chance(50) {
                true => format!("{table}.{column}"),
                false => column,
            }
        })
        .collect();
    let xt = XuisTable {
        name: table.clone(),
        primary_key,
        alias: None,
        hidden: false,
        columns: described,
    };
    let doc = XuisDoc {
        tables: if d.chance(85) { vec![xt] } else { vec![] },
    };
    let rows = (0..d.below(9))
        .map(|_| kinds.iter().map(|&kind| value(d, kind)).collect())
        .collect();
    let ops = (0..3)
        .map(|k| operation(format!("Op{k}{}", d.text())))
        .collect();
    Screen {
        doc,
        table,
        rs: ResultSet {
            columns,
            rows,
            affected: 0,
        },
        ops,
        guest: d.chance(40),
    }
}

proptest! {
    #[test]
    fn pages_match_the_parent_renderer(
        seed in any::<u64>(),
        texts in proptest::collection::vec("[a-zA-Z0-9<&\"'> é→%;/._~+-]{0,12}", 1..12),
    ) {
        let mut d = Draw { state: seed | 1, texts };
        let s = screen(&mut d);
        // Each row's operations: none, the same few as the row before
        // (the operations cell is copied), or others.
        let mut row_operations: Vec<Vec<&Operation>> = Vec::new();
        for _ in 0..s.rs.rows.len() {
            let ops = match (d.below(3), row_operations.last()) {
                (0, Some(last)) => last.clone(),
                (1, _) => Vec::new(),
                _ => s.ops.iter().filter(|_| d.chance(60)).collect(),
            };
            row_operations.push(ops);
        }
        let sizes = |url: &str| (!url.len().is_multiple_of(3)).then_some(url.len() as u64 * 997_331);
        let ctx = BrowseContext {
            xuis: &s.doc,
            table: &s.table,
            is_guest: s.guest,
            row_operations,
            file_size: if d.chance(80) { Some(&sizes) } else { None },
        };
        let page = render_results(&ctx, &s.rs);
        let parent = parent_page(&ctx, &s.rs);
        prop_assert!(page == parent, "pages differ\n    page: {page}\n  parent: {parent}");
    }
}

//! The web application: EASIA's generated interface wired to the
//! archive. Routes follow the paper's interaction flow — log in, pick a
//! table, fill the QBE form, browse results via hypertext links, invoke
//! operations, upload code.

use crate::admission::{Admission, AdmissionConfig, AdmissionController, RouteClass};
use crate::archive::{Archive, ArchiveError};
use easia_db::{ResultSet, Value};
use easia_ops::catalog::OperationCatalog;
use easia_web::auth::Role;
use easia_web::browse::{render_results_into, BrowseContext};
use easia_web::fed::{explain_page_body, federation_banner, federation_notice};
use easia_web::html::{escape, link, page, page_begin, page_end};
use easia_web::http::{url_encode, Method, Request, Response};
use easia_web::qbe::{build_browse_query, build_join_query, join_tables, render_query_form};
use easia_xuis::Widget;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The application: archive + transient per-session operation outputs.
pub struct WebApp {
    /// The archive.
    pub archive: Archive,
    /// Bounded per-route-class admission queues (overload protection).
    pub admission: AdmissionController,
    /// Operation outputs by `(session, filename)` so result pages can
    /// link to the produced files.
    outputs: BTreeMap<(String, String), Vec<u8>>,
}

impl WebApp {
    /// Wrap an archive with the default admission limits (deep enough
    /// that closed-loop use never sheds).
    pub fn new(archive: Archive) -> Self {
        Self::with_admission(archive, AdmissionConfig::default())
    }

    /// Wrap an archive with explicit admission limits — the load
    /// harness and the ablation use this.
    pub fn with_admission(archive: Archive, config: AdmissionConfig) -> Self {
        let admission = AdmissionController::new(config, &archive.obs.metrics);
        WebApp {
            archive,
            admission,
            outputs: BTreeMap::new(),
        }
    }

    /// Handle one request, recording it on the archive's metrics
    /// registry by route and status. The request is timestamped with
    /// the current simulated network clock — the closed-loop case,
    /// where a caller never issues a request before the previous answer
    /// arrived.
    pub fn handle(&mut self, req: Request) -> Response {
        let arrival = self.archive.net.now();
        self.handle_at(req, arrival)
    }

    /// Handle one request arriving at `arrival` seconds on an
    /// *open-loop* clock that may run ahead of the service clock — the
    /// load harness's entry point. The request first passes admission:
    /// a shed gets an immediate 503 whose `Retry-After` is the queue's
    /// computed drain time, an admitted request is dispatched and its
    /// measured service time fed back to the queue model.
    pub fn handle_at(&mut self, req: Request, arrival: f64) -> Response {
        let route = Route::of(&req);
        let label = route.label();
        if label == "metrics" {
            // Scrapes are exempt from admission — observability must
            // survive overload — and the route records itself before
            // rendering, so the exposition carries its own sample.
            return self.dispatch(&route, &req);
        }
        let class = route.class(&self.archive);
        let ticket = match self.admission.admit(class, arrival) {
            Admission::Admitted(t) => t,
            Admission::Shed { retry_after_secs } => {
                let resp = Response::unavailable(
                    &format!(
                        "portal overloaded: {} queue full, retry after {retry_after_secs}s",
                        class.label()
                    ),
                    retry_after_secs,
                );
                self.record_http(label, resp.status);
                return resp;
            }
        };
        let t0 = self.archive.net.now();
        let resp = self.dispatch(&route, &req);
        let service = self.archive.net.now() - t0;
        self.admission.complete(ticket, service);
        self.record_http(label, resp.status);
        resp
    }

    fn record_http(&self, route: &str, status: u16) {
        let r = &self.archive.obs.metrics;
        r.counter_with(
            "easia_http_requests_total",
            "HTTP requests handled by the portal, by route and status.",
            &[("route", route), ("status", &status.to_string())],
        )
        .inc();
        if status == 503 {
            r.counter(
                "easia_http_unavailable_total",
                "Responses degraded to 503 Service Unavailable with a Retry-After hint.",
            )
            .inc();
        }
    }

    /// The routing table. Pages above the `None` arm need no session;
    /// every page below it names the one it was reached with.
    fn dispatch(&mut self, route: &Route, req: &Request) -> Response {
        use Method::{Get, Post};
        match (route.method, route.segs.as_slice(), self.session_of(req)) {
            (Get, ["metrics", ..], _) => {
                self.record_http("metrics", 200);
                Response::text(self.archive.obs.metrics.render())
            }
            (Get, [], Some(_)) => Response::redirect("/tables"),
            (Get, [] | ["login", ..], _) => self.login_page(None),
            (Post, ["login", ..], _) => self.do_login(req),
            (_, _, None) => Response::redirect("/login"),
            (Get, ["logout"], Some((_, session))) => {
                self.archive.sessions.close(&session);
                self.outputs.retain(|(owner, _), _| *owner != session);
                Response::redirect("/login")
            }
            (Get, ["tables"], Some(_)) => self.tables_page(),
            (Get, ["query", table], Some(_)) => self.query_form(table),
            (Post, ["query", table], Some((role, _))) => self.run_query(table, req, role),
            (Get, ["browse", kind, colid], Some((role, _))) => {
                self.browse(kind, colid, req.param("value").unwrap_or(""), role)
            }
            (Get, ["lob", table, column], Some(_)) => self.lob(table, column, req),
            (Get, ["op", table, op], Some((role, _))) => self.op_form(table, op, req, role),
            (Post, ["op", table, op], Some((role, session))) => {
                self.op_run(table, op, req, role, &session)
            }
            (Get, ["result", name], Some((_, session))) => {
                match self.outputs.get(&(session, name.to_string())) {
                    Some(data) => Response::bytes(mime_of(name), data.clone()),
                    None => Response::error(404, "no such result"),
                }
            }
            (Get, ["download"], Some((role, _))) => self.download_route(req, role),
            (Get, ["upload"], Some((role, _))) => self.upload_form(role),
            (Post, ["upload"], Some((role, session))) => self.do_upload(req, role, &session),
            (Get, ["federated"], Some(_)) => self.federation_page(),
            (Post, ["federated", "explain", table], Some(_)) => {
                self.federated_explain_route(table, req)
            }
            (Get, ["progress"], Some(_)) => self.progress_page(),
            (Get, ["stats"], Some(_)) => self.stats_page(),
            (Get, ["users"], Some((role, _))) => self.users_page(role),
            (Post, ["users"], Some((role, _))) => self.add_user(req, role),
            (_, _, Some(_)) => Response::error(404, &format!("no route for {}", req.path)),
        }
    }

    /// The role and token of the request's live session, if any.
    fn session_of(&self, req: &Request) -> Option<(Role, String)> {
        let token = req.session.clone()?;
        let now = self.archive.clock.now();
        let (_user, role) = self.archive.sessions.resolve(&token, now)?;
        Some((role, token))
    }

    fn login_page(&self, error: Option<&str>) -> Response {
        let err = error
            .map(|e| format!("<p style=\"color:red\">{}</p>", escape(e)))
            .unwrap_or_default();
        Response::html(page(
            "Log in",
            &format!(
                "{err}<form method=\"post\" action=\"/login\">\
                 <p>Username <input name=\"username\"/> (try guest)</p>\
                 <p>Password <input type=\"password\" name=\"password\"/> (try guest)</p>\
                 <p><input type=\"submit\" value=\"Log in\"/></p></form>"
            ),
        ))
    }

    fn do_login(&mut self, req: &Request) -> Response {
        let user = req.param("username").unwrap_or("");
        let pass = req.param("password").unwrap_or("");
        match self.archive.users.authenticate(user, pass).cloned() {
            Some(u) => {
                let now = self.archive.clock.now();
                let token = self.archive.sessions.open(&u, now);
                Response::redirect("/tables").with_session(&token)
            }
            None => self.login_page(Some("invalid username or password")),
        }
    }

    fn tables_page(&self) -> Response {
        let mut body =
            String::from("<p>Select a link to a query form for a particular table:</p><ul>");
        for t in self.archive.xuis.visible_tables() {
            body.push_str(&format!(
                "<li>{}</li>",
                link(&format!("/query/{}", t.name), t.display_name())
            ));
        }
        body.push_str("</ul>");
        body.push_str(&format!(
            "<p>{} | {} | {}</p>",
            link("/upload", "Upload post-processing code"),
            link("/progress", "Job progress"),
            link("/stats", "Operation statistics")
        ));
        Response::html(page("Turbulence archive", &body))
    }

    fn query_form(&self, table: &str) -> Response {
        match self.archive.xuis.table(table) {
            Some(t) if !t.hidden => Response::html(page(
                &format!("Search {}", t.display_name()),
                &render_query_form(t),
            )),
            _ => Response::error(404, &format!("no table {table}")),
        }
    }

    fn run_query(&mut self, table: &str, req: &Request, role: Role) -> Response {
        let Some(xt) = self.archive.xuis.table(table) else {
            return Response::error(404, &format!("no table {table}"));
        };
        // FK columns with a substitute display column become LEFT JOIN
        // legs, so the readable value is part of the statement itself.
        let (sql, params) = match build_join_query(xt, &req.form) {
            Ok(q) => q,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        let federated = query_is_federated(&self.archive, xt);
        let name = xt.name.clone();
        self.result_screen(&name, &sql, &params, federated, role)
    }

    /// Run a screen's statement and render its result page. Statements
    /// touching any federated table — the table itself or a joined FK
    /// target — run transparently across every registered site;
    /// everything else is read-only on the hub alone and runs on a
    /// snapshot: stable rows even while ingest or link control is
    /// mid-transaction.
    fn result_screen(
        &mut self,
        table: &str,
        sql: &str,
        params: &[Value],
        federated: bool,
        role: Role,
    ) -> Response {
        let mut notice = String::new();
        let rs = if federated {
            match self.archive.federated_query(sql, params) {
                Ok(out) => {
                    notice = format!(
                        "{}{}",
                        federation_banner(&out.explain),
                        federation_notice(&out.explain)
                    );
                    out.rs
                }
                Err(e) => return error_response(&e),
            }
        } else {
            match self.archive.snapshot_read(sql, params) {
                Ok(rs) => rs,
                Err(e) => return Response::error(400, &e.to_string()),
            }
        };
        self.render_result_page(table, &rs, role, &notice)
    }

    /// The federated keyed scans behind this screen's FK/PK browse
    /// links, to run speculatively while the screen renders, so the next
    /// click is served from the prefetch cache instead of waiting on the
    /// WAN. Bounded to the first few distinct link targets; parked
    /// results are invalidated by the federation write fingerprint, so a
    /// write anywhere between render and click forces a live re-run.
    fn link_prefetches(
        &self,
        xt: &easia_xuis::XuisTable,
        rs: &ResultSet,
    ) -> Vec<(String, Vec<Value>)> {
        const MAX_PREFETCH: usize = 4;
        // Where a link leads depends on its column alone: per result
        // column, the browse statement of each target the renderer links
        // to — the FK's referenced row, then child rows per referencing
        // table. Hub-local targets answer without WAN latency;
        // speculation buys nothing there.
        let targets: Vec<Vec<String>> = rs
            .columns
            .iter()
            .map(|c| {
                let Some(xc) = xt.column(c) else {
                    return Vec::new();
                };
                let fk = xc.fk.iter().map(|fk| &fk.tablecolumn);
                fk.chain(&xc.pk_refby)
                    .filter_map(|colid| {
                        let (table, column) = colid.rsplit_once('.')?;
                        let txt = self.archive.xuis.table(table)?;
                        query_is_federated(&self.archive, txt)
                            .then(|| build_browse_query(txt, column))
                    })
                    .collect()
            })
            .collect();
        let mut queries = Vec::new();
        if targets.iter().all(Vec::is_empty) {
            return queries;
        }
        let mut text = String::new();
        'rows: for row in &rs.rows {
            for (sqls, v) in targets.iter().zip(row) {
                if v.is_null() {
                    continue;
                }
                for sql in sqls {
                    let value = v.display_text(&mut text);
                    let same =
                        |(s, p): &(String, Vec<Value>)| s == sql && p[0].as_text() == Some(value);
                    if !queries.iter().any(same) {
                        queries.push((sql.clone(), vec![Value::Str(value.to_string())]));
                        if queries.len() >= MAX_PREFETCH {
                            break 'rows;
                        }
                    }
                }
            }
        }
        queries
    }

    fn render_result_page(
        &mut self,
        table: &str,
        rs: &ResultSet,
        role: Role,
        notice: &str,
    ) -> Response {
        if let Some(xt) = self.archive.xuis.table(table) {
            let queries = self.link_prefetches(xt, rs);
            self.archive.prefetch_queries(&queries);
        }
        // Row-level operation applicability: which operations and which
        // columns their conditions test is settled once, then each row
        // is judged on its values.
        let is_guest = matches!(role, Role::Guest);
        let candidates = self.archive.catalog.resolve(table, &rs.columns, is_guest);
        let mut text = String::new();
        let row_operations = rs
            .rows
            .iter()
            .map(|row| {
                candidates.for_row(|i, want| {
                    row.get(i)
                        .is_some_and(|v| v.display_text(&mut text) == want)
                })
            })
            .collect();
        let sizes = |url: &str| self.archive.file_size_of(url);
        let ctx = BrowseContext {
            xuis: &self.archive.xuis,
            table,
            is_guest,
            row_operations,
            file_size: Some(&sizes),
        };
        let mut body = page_begin(&format!("Results from {table}"));
        let _ = write!(body, "<p>{} row(s)</p>{notice}", rs.rows.len());
        render_results_into(&ctx, rs, &mut body);
        page_end(&mut body);
        Response::html(body)
    }

    fn browse(&mut self, kind: &str, colid: &str, value: &str, role: Role) -> Response {
        // fk: colid is the referenced TABLE.COLUMN — fetch that row.
        // pk: colid is the referencing TABLE.COLUMN — fetch child rows.
        if kind != "fk" && kind != "pk" {
            return Response::error(404, "unknown browse kind");
        }
        let Some((table, column)) = colid.rsplit_once('.') else {
            return Response::error(400, "bad column id");
        };
        let Some(xt) = self.archive.xuis.table(table) else {
            return Response::error(404, &format!("no table {table}"));
        };
        // The column half becomes statement text: it has to be a column.
        if xt.column(column).is_none() {
            return Response::error(404, &format!("no column {table}.{column}"));
        }
        // Hyperlink browsing also sees the whole federation — including
        // the FK-substitute join legs the statement now carries.
        let sql = build_browse_query(xt, column);
        let federated = query_is_federated(&self.archive, xt);
        let params = [Value::Str(value.to_string())];
        self.result_screen(table, &sql, &params, federated, role)
    }

    fn lob(&mut self, table: &str, column: &str, req: &Request) -> Response {
        // The column becomes statement text, and this route applies no
        // role check: only a large object the interface shows is served.
        let xt = self.archive.xuis.table(table);
        let shown = xt
            .and_then(|xt| xt.column(column))
            .is_some_and(|c| !c.hidden && matches!(c.type_name.as_str(), "BLOB" | "CLOB"));
        if !shown {
            return Response::error(404, &format!("no large object {table}.{column}"));
        }
        // Identify the row by the primary-key query parameters.
        let Some(schema) = self.archive.db.schema(table).cloned() else {
            return Response::error(404, &format!("no table {table}"));
        };
        let mut conj = Vec::new();
        let mut params = Vec::new();
        for pk in &schema.primary_key {
            let Some(v) = req.param(pk) else {
                return Response::error(400, &format!("missing key {pk}"));
            };
            conj.push(format!("{pk} = ?"));
            params.push(Value::Str(v.to_string()));
        }
        if conj.is_empty() {
            return Response::error(400, "table has no primary key");
        }
        let sql = format!("SELECT {column} FROM {table} WHERE {}", conj.join(" AND "));
        match self.archive.db.execute_with_params(&sql, &params) {
            Ok(rs) => match rs.scalar() {
                // "BLOB and CLOB ... rematerialised and returned to the
                // client" with the appropriate MIME type.
                Some(Value::Blob(b)) => Response::bytes("application/octet-stream", b.clone()),
                Some(Value::Clob(c)) => Response::text(c.clone()),
                Some(Value::Null) | None => Response::error(404, "no such object"),
                Some(v) => Response::text(v.to_string()),
            },
            Err(e) => Response::error(400, &e.to_string()),
        }
    }

    fn op_form(&mut self, table: &str, op_name: &str, req: &Request, role: Role) -> Response {
        let Some(entry) = self.archive.catalog.find(table, op_name).cloned() else {
            return Response::error(404, &format!("no operation {op_name}"));
        };
        if !entry.op.guest_access && !role.can_run_restricted_ops() {
            return Response::error(403, "operation not available to guest users");
        }
        let dataset = req.param("dataset").unwrap_or("");
        // "An HTML form will be created to request these parameters at
        // invocation time."
        let mut body = format!(
            "<p>Operation <b>{}</b> on dataset <code>{}</code></p>",
            escape(op_name),
            escape(dataset)
        );
        if let Some(d) = &entry.op.description {
            body.push_str(&format!("<p>{}</p>", escape(d)));
        }
        body.push_str(&format!(
            "<form method=\"post\" action=\"/op/{}/{}\">\
             <input type=\"hidden\" name=\"dataset\" value=\"{}\"/>",
            url_encode(table),
            url_encode(op_name),
            escape(dataset)
        ));
        for p in &entry.op.parameters {
            body.push_str(&format!("<p>{}<br/>", escape(&p.description)));
            match &p.widget {
                Widget::Select {
                    name,
                    size,
                    options,
                } => {
                    body.push_str(&format!(
                        "<select name=\"{}\" size=\"{}\">",
                        escape(name),
                        size
                    ));
                    for (v, label) in options {
                        body.push_str(&format!(
                            "<option value=\"{}\">{}</option>",
                            escape(v),
                            escape(label)
                        ));
                    }
                    body.push_str("</select>");
                }
                Widget::Radio { name, options } => {
                    for (v, label) in options {
                        body.push_str(&format!(
                            "<input type=\"radio\" name=\"{}\" value=\"{}\"/>{} ",
                            escape(name),
                            escape(v),
                            escape(label)
                        ));
                    }
                }
                Widget::Text { name, default } => {
                    body.push_str(&format!(
                        "<input type=\"text\" name=\"{}\" value=\"{}\"/>",
                        escape(name),
                        escape(default)
                    ));
                }
            }
            body.push_str("</p>");
        }
        body.push_str("<p><input type=\"submit\" value=\"Run operation\"/></p></form>");
        Response::html(page(&format!("Invoke {op_name}"), &body))
    }

    fn op_run(
        &mut self,
        table: &str,
        op_name: &str,
        req: &Request,
        role: Role,
        session: &str,
    ) -> Response {
        let Some(dataset) = req.param("dataset").map(str::to_string) else {
            return Response::error(400, "missing dataset");
        };
        let mut params: BTreeMap<String, String> = req.form.clone();
        params.remove("dataset");
        match self
            .archive
            .run_operation(table, op_name, &dataset, &params, role, session)
        {
            Ok(out) => {
                let mut body =
                    format!(
                    "<p>Operation complete in {:.1} simulated seconds{} — {} byte(s) returned.</p>",
                    out.elapsed_secs,
                    if out.from_cache { " (cached result)" } else { "" },
                    out.shipped_bytes as u64
                );
                if !out.stdout.is_empty() {
                    body.push_str(&format!("<pre>{}</pre>", escape(&out.stdout)));
                }
                if !out.outputs.is_empty() {
                    body.push_str("<ul>");
                    for (name, data) in &out.outputs {
                        self.outputs
                            .insert((session.to_string(), name.clone()), data.clone());
                        body.push_str(&format!(
                            "<li>{} ({} bytes)</li>",
                            link(&format!("/result/{}", url_encode(name)), name),
                            data.len()
                        ));
                    }
                    body.push_str("</ul>");
                }
                Response::html(page(&format!("{op_name} output"), &body))
            }
            Err(e) => error_response(&e),
        }
    }

    fn download_route(&mut self, req: &Request, role: Role) -> Response {
        let Some(url) = req.param("url").map(str::to_string) else {
            return Response::error(400, "missing url");
        };
        match self.archive.download(&url, role) {
            Ok((data, _secs)) => Response::bytes("application/octet-stream", data),
            Err(e) => error_response(&e),
        }
    }

    fn upload_form(&self, role: Role) -> Response {
        if !role.can_upload_code() {
            return Response::error(403, "guest users cannot upload post-processing codes");
        }
        Response::html(page(
            "Upload post-processing code",
            "<p>Code must accept the dataset filename as its first parameter and \
             write output to relative filenames.</p>\
             <form method=\"post\" action=\"/upload\">\
             <p>Dataset URL <input name=\"dataset\" size=\"60\"/></p>\
             <p>EPC source<br/><textarea name=\"code\" rows=\"12\" cols=\"70\"></textarea></p>\
             <p><input type=\"submit\" value=\"Upload and run\"/></p></form>",
        ))
    }

    fn do_upload(&mut self, req: &Request, role: Role, session: &str) -> Response {
        let dataset = req.param("dataset").unwrap_or("").to_string();
        let code = req.param("code").unwrap_or("").to_string();
        match self.archive.upload_and_run(
            "RESULT_FILE",
            "DOWNLOAD_RESULT",
            &dataset,
            code.into_bytes(),
            "main.epc",
            &BTreeMap::new(),
            role,
            session,
        ) {
            Ok(out) => {
                let mut body = format!(
                    "<p>Uploaded code ran in the sandbox: {} instruction(s), {:.1} simulated seconds.</p>",
                    out.instructions, out.elapsed_secs
                );
                if !out.stdout.is_empty() {
                    body.push_str(&format!("<pre>{}</pre>", escape(&out.stdout)));
                }
                for (name, data) in &out.outputs {
                    self.outputs
                        .insert((session.to_string(), name.clone()), data.clone());
                    body.push_str(&format!(
                        "<p>{}</p>",
                        link(&format!("/result/{}", url_encode(name)), name)
                    ));
                }
                Response::html(page("Upload complete", &body))
            }
            Err(e) => error_response(&e),
        }
    }

    fn progress_page(&self) -> Response {
        let mut body = String::from("<table><tr><th>Job</th><th>State</th></tr>");
        for (job, phase) in self.archive.board.snapshot() {
            body.push_str(&format!(
                "<tr><td>{}</td><td>{:?}</td></tr>",
                escape(&job),
                phase
            ));
        }
        body.push_str("</table>");
        Response::html(page("Job progress", &body))
    }

    /// Federation status: registered foreign servers and the
    /// foreign-table catalog with per-partition row estimates.
    fn federation_page(&self) -> Response {
        let fed = &self.archive.federation;
        let mut body = String::from("<h2>Foreign servers</h2><ul>");
        for name in fed.site_names() {
            let site = fed.site(&name).expect("listed site exists");
            body.push_str(&format!(
                "<li>{} — {}</li>",
                escape(&name),
                if site.is_up() { "up" } else { "DOWN" }
            ));
        }
        body.push_str(
            "</ul><h2>Foreign tables</h2><table>\
             <tr><th>Table</th><th>Site key</th><th>Partitions</th></tr>",
        );
        for (name, ft) in &fed.catalog.tables {
            let parts: Vec<String> = ft
                .partitions
                .iter()
                .map(|p| format!("{} (est {} rows)", p.site_label(), p.est_rows.get()))
                .collect();
            body.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td></tr>",
                escape(name),
                escape(ft.site_key.as_deref().unwrap_or("-")),
                escape(&parts.join(", "))
            ));
        }
        body.push_str("</table>");
        Response::html(page("Federation", &body))
    }

    /// `EXPLAIN FEDERATED` for a QBE form submission: plan the query the
    /// form would run and show per-site pushed vs. hub-evaluated
    /// conjuncts and the pruning decisions, without executing it.
    fn federated_explain_route(&mut self, table: &str, req: &Request) -> Response {
        let Some(xt) = self.archive.xuis.table(table).cloned() else {
            return Response::error(404, &format!("no table {table}"));
        };
        if !query_is_federated(&self.archive, &xt) {
            return Response::error(400, &format!("{table} is not a federated table"));
        }
        let (sql, params) = match build_join_query(&xt, &req.form) {
            Ok(q) => q,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        match self.archive.federated_explain(&sql, &params) {
            Ok(text) => Response::html(page(
                &format!("EXPLAIN FEDERATED {}", xt.name),
                &explain_page_body(&sql, &text),
            )),
            Err(e) => error_response(&e),
        }
    }

    fn stats_page(&self) -> Response {
        let mut body = String::from(
            "<table><tr><th>Operation</th><th>Runs</th><th>Failures</th>\
             <th>Mean time (s)</th><th>Mean output (bytes)</th></tr>",
        );
        for (name, s) in self.archive.stats.report() {
            body.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.2}</td><td>{:.0}</td></tr>",
                escape(name),
                s.runs,
                s.failures,
                s.mean_exec_secs(),
                s.mean_output_bytes()
            ));
        }
        body.push_str("</table>");
        Response::html(page("Operation statistics", &body))
    }

    fn users_page(&self, role: Role) -> Response {
        if !role.can_manage_users() {
            return Response::error(403, "user management requires the admin role");
        }
        let mut body = String::from("<table><tr><th>User</th><th>Role</th></tr>");
        for u in self.archive.users.list() {
            body.push_str(&format!(
                "<tr><td>{}</td><td>{:?}</td></tr>",
                escape(&u.username),
                u.role
            ));
        }
        body.push_str(
            "</table><form method=\"post\" action=\"/users\">\
             <p>New user <input name=\"username\"/> password <input name=\"password\"/>\
             role <select name=\"role\"><option>Researcher</option><option>Guest</option>\
             <option>Admin</option></select> <input type=\"submit\" value=\"Add\"/></p></form>",
        );
        Response::html(page("User management", &body))
    }

    fn add_user(&mut self, req: &Request, role: Role) -> Response {
        if !role.can_manage_users() {
            return Response::error(403, "user management requires the admin role");
        }
        let username = req.param("username").unwrap_or("");
        let password = req.param("password").unwrap_or("");
        if username.is_empty() || password.is_empty() {
            return Response::error(400, "username and password required");
        }
        let new_role = match req.param("role") {
            Some("Admin") => Role::Admin,
            Some("Guest") => Role::Guest,
            _ => Role::Researcher,
        };
        self.archive.users.add_user(username, password, new_role);
        Response::redirect("/users")
    }

    /// Run an operation directly (used by experiments that bypass HTTP).
    pub fn catalog(&self) -> &OperationCatalog {
        &self.archive.catalog
    }
}

/// A request's method and path segments, taken apart once: the metric
/// label, the admission class and the handler are all read off it.
struct Route<'a> {
    method: Method,
    segs: Vec<&'a str>,
}

/// First path segments that are their own `easia_http_requests_total`
/// label.
const ROUTE_LABELS: [&str; 15] = [
    "federated",
    "login",
    "logout",
    "tables",
    "query",
    "browse",
    "lob",
    "op",
    "result",
    "download",
    "upload",
    "progress",
    "stats",
    "users",
    "metrics",
];

impl<'a> Route<'a> {
    fn of(req: &'a Request) -> Self {
        Route {
            method: req.method,
            segs: req.segments(),
        }
    }

    /// Collapse the path onto the bounded route-label set, so hostile
    /// or mistyped paths cannot mint unbounded label values.
    fn label(&self) -> &'static str {
        match self.segs.as_slice() {
            [] => "root",
            // The federated explain sub-route gets its own label; the
            // table name stays out of the label set.
            ["federated", "explain", ..] => "federated_explain",
            [head, ..] => {
                let known = ROUTE_LABELS.iter().find(|l| *l == head);
                known.copied().unwrap_or("other")
            }
        }
    }

    /// The admission queue: bulk byte delivery (DATALINK downloads, LOB
    /// rematerialisation, operation outputs) is `Download`; work that
    /// scatters to federated sites or runs server-side codes is `Scan`;
    /// everything hub-local is `Browse`.
    fn class(&self, archive: &Archive) -> RouteClass {
        let federated = |table: &str| {
            let xt = archive.xuis.table(table);
            xt.is_some_and(|xt| query_is_federated(archive, xt))
        };
        let table_of = |colid: &'a str| colid.rsplit_once('.').map_or("", |(table, _)| table);
        match (self.method, self.segs.as_slice()) {
            (_, ["download" | "lob" | "result", ..]) => RouteClass::Download,
            (Method::Post, ["federated" | "op" | "upload", ..]) => RouteClass::Scan,
            (Method::Post, ["query", table, ..]) if federated(table) => RouteClass::Scan,
            (Method::Get, ["browse", _, colid, ..]) if federated(table_of(colid)) => {
                RouteClass::Scan
            }
            _ => RouteClass::Browse,
        }
    }
}

/// Does a QBE/browse query for this table touch any federated table
/// (the table itself, or an FK-substitute join target)?
fn query_is_federated(archive: &Archive, xt: &easia_xuis::XuisTable) -> bool {
    join_tables(xt)
        .iter()
        .any(|t| archive.federation.catalog.is_federated(t))
}

/// Map archive-level errors onto HTTP: permission problems are 403, an
/// unreachable file server degrades to 503 with a Retry-After hint, and
/// everything else is a 400 with the error text.
fn error_response(e: &ArchiveError) -> Response {
    match e {
        ArchiveError::Denied(m) => Response::error(403, m),
        ArchiveError::Fs(easia_fs::FsError::Unavailable {
            retry_after_secs, ..
        }) => Response::unavailable(&e.to_string(), *retry_after_secs),
        _ => Response::error(400, &e.to_string()),
    }
}

fn mime_of(name: &str) -> &'static str {
    if name.ends_with(".ppm") {
        "image/x-portable-pixmap"
    } else if name.ends_with(".html") {
        "text/html; charset=utf-8"
    } else if name.ends_with(".txt") {
        "text/plain; charset=utf-8"
    } else {
        "application/octet-stream"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turbulence;
    use crate::Archive;

    fn app() -> WebApp {
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .build();
        turbulence::install_schema(&mut a).unwrap();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        WebApp::new(a)
    }

    fn login(app: &mut WebApp, user: &str, pass: &str) -> String {
        let resp = app.handle(Request::post(
            "/login",
            &[("username", user), ("password", pass)],
        ));
        assert_eq!(resp.status, 302, "{}", resp.body_text());
        resp.set_session.expect("session cookie set")
    }

    /// A hub ("soton", one file server) and one foreign site ("cam"):
    /// `seed` creates and fills each side's tables, `tables` are then
    /// registered as partitioned over the two on `site_key`.
    fn cam_archive(
        builder: crate::ArchiveBuilder,
        tables: &[&str],
        site_key: Option<&str>,
        seed: impl FnMut(&mut easia_db::Database, &str, u64),
    ) -> Archive {
        let mut a = builder
            .file_server("fs1.example", crate::paper_link_spec())
            .federated_site("cam", crate::paper_link_spec())
            .build();
        a.federation
            .partition_tables(&mut a.db, "soton", &["cam"], tables, site_key, seed)
            .unwrap();
        a
    }

    #[test]
    fn login_flow() {
        let mut app = app();
        // Unauthenticated access redirects to login.
        let r = app.handle(Request::get("/tables"));
        assert_eq!(r.status, 302);
        assert_eq!(r.location.as_deref(), Some("/login"));
        // Bad credentials re-render the form.
        let r = app.handle(Request::post(
            "/login",
            &[("username", "guest"), ("password", "wrong")],
        ));
        assert!(r.body_text().contains("invalid"));
        // Good credentials open a session.
        let sess = login(&mut app, "guest", "guest");
        let r = app.handle(Request::get("/tables").with_session(&sess));
        assert_eq!(r.status, 200);
        assert!(r.body_text().contains("Result files"), "alias shown");
        // Logout closes it.
        let r = app.handle(Request::get("/logout").with_session(&sess));
        assert_eq!(r.status, 302);
        let r = app.handle(Request::get("/tables").with_session(&sess));
        assert_eq!(r.status, 302, "session gone");
    }

    #[test]
    fn query_form_and_search() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let r = app.handle(Request::get("/query/SIMULATION").with_session(&sess));
        assert!(r.body_text().contains("op_TITLE"));
        let r = app.handle(
            Request::post(
                "/query/SIMULATION",
                &[
                    ("ret_TITLE", "on"),
                    ("ret_AUTHOR_KEY", "on"),
                    ("val_TITLE", "Channel%"),
                ],
            )
            .with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("1 row(s)"), "{body}");
        // FK substitution: author shown by name, linking to the author.
        assert!(body.contains("Mark Papiani"), "{body}");
        assert!(body.contains("/browse/fk/AUTHOR.AUTHOR_KEY"), "{body}");
    }

    #[test]
    fn browse_links_work() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let r =
            app.handle(Request::get("/browse/fk/AUTHOR.AUTHOR_KEY?value=A1").with_session(&sess));
        assert!(
            r.body_text().contains("papiani@computer.org"),
            "{}",
            r.body_text()
        );
        // PK browsing from SIMULATION to RESULT_FILE.
        let r = app.handle(
            Request::get("/browse/pk/RESULT_FILE.SIMULATION_KEY?value=S01").with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("t000.edf"), "{body}");
        assert!(body.contains("GetImage"), "operations column: {body}");
    }

    #[test]
    fn clob_rematerialisation() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let r = app.handle(
            Request::get("/lob/SIMULATION/DESCRIPTION?SIMULATION_KEY=S01").with_session(&sess),
        );
        assert_eq!(r.status, 200);
        assert!(r.content_type.starts_with("text/plain"));
        assert!(r.body_text().contains("Direct numerical simulation"));
    }

    /// The column half of a browse id is spliced into the statement:
    /// anything that is not a column of the table is a 404, not SQL.
    #[test]
    fn browse_rejects_a_column_that_is_not_one() {
        let mut app = app();
        let sess = login(&mut app, "guest", "guest");
        let r = app.handle(
            Request::get("/browse/pk/RESULT_FILE.1=1 OR FILE_NAME?value=zzz").with_session(&sess),
        );
        assert_eq!(r.status, 404, "{}", r.body_text());
        assert!(!r.body_text().contains("t000.edf"), "{}", r.body_text());
        // Column names match case-insensitively, as table names do.
        let r = app.handle(
            Request::get("/browse/pk/RESULT_FILE.simulation_key?value=S01").with_session(&sess),
        );
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert!(r.body_text().contains("t000.edf"));
    }

    /// `/lob` serves large-object columns only: no expressions…
    #[test]
    fn lob_rejects_an_expression_in_the_column_segment() {
        let mut app = app();
        let sess = login(&mut app, "guest", "guest");
        let r = app.handle(
            Request::get("/lob/RESULT_FILE/COUNT(*)?FILE_NAME=t000.edf&SIMULATION_KEY=S01")
                .with_session(&sess),
        );
        assert_eq!(r.status, 404, "{}", r.body_text());
    }

    /// …and no DATALINK column, whose SELECT would mint a fresh access
    /// token for a role the result screen shows "download restricted".
    #[test]
    fn lob_does_not_mint_datalink_tokens() {
        let mut app = app();
        let sess = login(&mut app, "guest", "guest");
        let r = app.handle(
            Request::get("/lob/RESULT_FILE/DOWNLOAD_RESULT?FILE_NAME=t000.edf&SIMULATION_KEY=S01")
                .with_session(&sess),
        );
        assert_eq!(r.status, 404, "{}", r.body_text());
        assert!(!r.body_text().contains("http://"), "{}", r.body_text());
        // A hidden large-object column is not served either.
        let mut doc = app.archive.xuis.clone();
        let description = doc.table_mut("SIMULATION").unwrap();
        description.column_mut("DESCRIPTION").unwrap().hidden = true;
        app.archive.set_xuis(doc);
        let r = app.handle(
            Request::get("/lob/SIMULATION/DESCRIPTION?SIMULATION_KEY=S01").with_session(&sess),
        );
        assert_eq!(r.status, 404, "{}", r.body_text());
    }

    #[test]
    fn operation_form_and_run() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let rs = app
            .archive
            .db
            .execute("SELECT DLURLCOMPLETE(download_result) FROM RESULT_FILE LIMIT 1")
            .unwrap();
        let url = rs.rows[0][0].to_string();
        let r = app.handle(
            Request::get(&format!(
                "/op/RESULT_FILE/GetImage?dataset={}",
                url_encode(&url)
            ))
            .with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("Select the slice"), "{body}");
        assert!(body.contains("name=\"type\""), "{body}");
        let r = app.handle(
            Request::post(
                "/op/RESULT_FILE/GetImage",
                &[("dataset", url.as_str()), ("slice", "z0"), ("type", "u")],
            )
            .with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("Operation complete"), "{body}");
        assert!(body.contains("slice_u_z0.ppm"), "{body}");
        // Fetch the produced image.
        let r = app.handle(Request::get("/result/slice_u_z0.ppm").with_session(&sess));
        assert_eq!(r.content_type, "image/x-portable-pixmap");
        assert!(r.body.starts_with(b"P6"));
    }

    #[test]
    fn guest_restrictions_via_http() {
        let mut app = app();
        let sess = login(&mut app, "guest", "guest");
        // Guests see no download links.
        let r = app.handle(
            Request::post("/query/RESULT_FILE", &[("all", "All data")]).with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("download restricted"), "{body}");
        // Guests cannot open the upload form.
        let r = app.handle(Request::get("/upload").with_session(&sess));
        assert_eq!(r.status, 403);
        // Guests cannot manage users.
        let r = app.handle(Request::get("/users").with_session(&sess));
        assert_eq!(r.status, 403);
    }

    #[test]
    fn crashed_file_server_degrades_to_503_with_retry_after() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let rs = app
            .archive
            .db
            .execute("SELECT download_result FROM RESULT_FILE LIMIT 1")
            .unwrap();
        let url = rs.rows[0][0].to_string();
        let rs = app
            .archive
            .db
            .execute("SELECT DLURLCOMPLETE(download_result) FROM RESULT_FILE LIMIT 1")
            .unwrap();
        let stored = rs.rows[0][0].to_string();
        // Download works while the server is up.
        let r = app.handle(
            Request::get(&format!("/download?url={}", url_encode(&url))).with_session(&sess),
        );
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert!(!r.body.is_empty());
        // Kill the server: the same request degrades to 503 + Retry-After.
        app.archive
            .server("fs1.example")
            .unwrap()
            .1
            .borrow_mut()
            .crash();
        let r = app.handle(
            Request::get(&format!("/download?url={}", url_encode(&url))).with_session(&sess),
        );
        assert_eq!(r.status, 503, "{}", r.body_text());
        assert_eq!(r.retry_after, Some(easia_fs::DEFAULT_RETRY_AFTER_SECS));
        assert!(r.body_text().contains("unavailable"), "{}", r.body_text());
        // Operations against datasets on the dead server degrade too.
        let r = app.handle(
            Request::post(
                "/op/RESULT_FILE/GetImage",
                &[("dataset", stored.as_str()), ("slice", "z0"), ("type", "u")],
            )
            .with_session(&sess),
        );
        assert_eq!(r.status, 503, "{}", r.body_text());
        // Restart: service resumes.
        app.archive
            .server("fs1.example")
            .unwrap()
            .1
            .borrow_mut()
            .restart();
        let r = app.handle(
            Request::get(&format!("/download?url={}", url_encode(&url))).with_session(&sess),
        );
        assert_eq!(r.status, 200, "{}", r.body_text());
    }

    #[test]
    fn upload_via_http() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let rs = app
            .archive
            .db
            .execute("SELECT DLURLCOMPLETE(download_result) FROM RESULT_FILE LIMIT 1")
            .unwrap();
        let url = rs.rows[0][0].to_string();
        let r = app.handle(
            Request::post(
                "/upload",
                &[
                    ("dataset", url.as_str()),
                    ("code", "INPUTSIZE\nPRINTNUM\nHALT"),
                ],
            )
            .with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("ran in the sandbox"), "{body}");
        let size = app.archive.file_size_of(&url).unwrap();
        assert!(body.contains(&size.to_string()), "{body}");
    }

    #[test]
    fn admin_pages() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let r = app.handle(
            Request::post(
                "/users",
                &[
                    ("username", "mark"),
                    ("password", "pw"),
                    ("role", "Researcher"),
                ],
            )
            .with_session(&sess),
        );
        assert_eq!(r.status, 302);
        let r = app.handle(Request::get("/users").with_session(&sess));
        assert!(r.body_text().contains("mark"));
        let r = app.handle(Request::get("/stats").with_session(&sess));
        assert_eq!(r.status, 200);
        let r = app.handle(Request::get("/progress").with_session(&sess));
        assert_eq!(r.status, 200);
    }

    #[test]
    fn metrics_endpoint_exposes_every_layer() {
        // A federated archive, so the per-site families exist too.
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .federated_site("cam", crate::paper_link_spec())
            .build();
        turbulence::install_schema(&mut a).unwrap();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        let mut app = WebApp::new(a);
        let sess = login(&mut app, "admin", "hpcc-admin");
        let r = app.handle(Request::get("/tables").with_session(&sess));
        assert_eq!(r.status, 200);
        let r = app.handle(Request::get("/metrics"));
        assert_eq!(r.status, 200);
        assert!(
            r.content_type.starts_with("text/plain"),
            "{}",
            r.content_type
        );
        let body = r.body_text();
        for needle in [
            "easia_db_statements_total",     // database execution
            "easia_db_rows_scanned_total",   // scans
            "easia_transfer_attempts_total", // transfer client
            "easia_transfer_retries_total",
            "easia_dlfm_tokens_issued_total", // datalink manager
            "easia_fs_links_total",           // file servers (seeding linked files)
            "easia_http_requests_total",      // HTTP routing
            "easia_http_queue_depth",         // admission controller
            "easia_http_shed_total",
            "easia_http_admitted_total",
            "easia_http_queue_delay_seconds",
            "easia_http_latency_seconds",
            // Families that must render eagerly, at zero, before any
            // outage, pushdown, conflict, corruption or scrub pass.
            "easia_med_breaker_state", // federation resilience
            "easia_med_scan_retries_total",
            "easia_med_cache_hits_total",
            "easia_med_cache_stale_served_total",
            "easia_med_partial_agg_groups_shipped_total", // partial aggregates
            "easia_med_partial_agg_fallbacks_total",
            "easia_db_mvcc_open_snapshots", // MVCC
            "easia_db_mvcc_versions_created_total",
            "easia_db_mvcc_versions_vacuumed_total",
            "easia_db_mvcc_write_conflicts_total",
            "easia_db_mvcc_group_commit_batch_size",
            "easia_db_wal_fsyncs_total",
            "easia_db_wal_corruption_detected_total", // durability
            "easia_db_scrub_frames_verified_total",
            "easia_db_scrub_errors_total",
        ] {
            // A sample line, not just the family's HELP/TYPE header.
            assert!(
                body.lines().any(|l| l.starts_with(needle)),
                "missing {needle} in:\n{body}"
            );
        }
        // The admission families carry every class label eagerly, at
        // zero sheds, before any overload has happened.
        for class in ["browse", "scan", "download"] {
            let needle = format!("easia_http_shed_total{{class=\"{class}\"}} 0");
            assert!(body.contains(&needle), "missing {needle} in:\n{body}");
        }
        // The route records itself before rendering, so the returned
        // exposition already carries its own request sample.
        assert!(body.contains("route=\"metrics\""), "{body}");
        // Seeding linked files, so the fs counter is non-zero.
        assert!(
            body.contains("easia_fs_links_total{host=\"fs1.example\"}"),
            "{body}"
        );
        // Unbounded paths collapse onto the "other" label.
        let _ = app.handle(Request::get("/no/such/route").with_session(&sess));
        let r = app.handle(Request::get("/metrics"));
        assert!(r.body_text().contains("route=\"other\",status=\"404\""));
    }

    #[test]
    fn degraded_federated_answer_shows_banner_and_breaker_metrics() {
        const DDL: &str = "CREATE TABLE SIMULATION (\
             SIMULATION_KEY VARCHAR(40) PRIMARY KEY, \
             SITE VARCHAR(20), \
             TITLE VARCHAR(80), \
             GRID_SIZE INTEGER)";
        let builder = Archive::builder()
            .federation_policy(easia_med::PartialPolicy::Partial)
            .replica_cache(300.0, 1_000);
        let mut a = cam_archive(builder, &["SIMULATION"], Some("SITE"), |db, _, site_no| {
            db.execute(DDL).unwrap();
            db.execute(if site_no == 0 {
                "INSERT INTO SIMULATION VALUES ('soton-0', 'soton', 'Local run', 64)"
            } else {
                "INSERT INTO SIMULATION VALUES ('cam-0', 'cam', 'Remote run', 128)"
            })
            .unwrap();
        });
        a.generate_xuis_federated(4);
        a.federation.site("cam").unwrap().crash();
        let mut app = WebApp::new(a);
        let sess = login(&mut app, "admin", "hpcc-admin");

        // The PARTIAL answer renders with the visible degradation
        // banner naming the skipped site.
        let r = app
            .handle(Request::post("/query/SIMULATION", &[("all", "All data")]).with_session(&sess));
        assert_eq!(r.status, 200, "{}", r.body_text());
        let body = r.body_text();
        assert!(body.contains("banner warning"), "{body}");
        assert!(body.contains("INCOMPLETE"), "{body}");
        assert!(body.contains("cam"), "{body}");

        // The resilience metric families render on /metrics — the
        // breaker gauge per site, retry and cache counters — without
        // needing a retry or cache hit to have happened first.
        let m = app.handle(Request::get("/metrics")).body_text();
        for needle in [
            "easia_med_breaker_state{site=\"cam\"}",
            "easia_med_scan_retries_total{site=\"cam\"}",
            "easia_med_cache_hits_total{site=\"cam\"}",
            "easia_med_cache_stale_served_total{site=\"cam\"}",
        ] {
            assert!(m.contains(needle), "missing {needle} in:\n{m}");
        }
    }

    #[test]
    fn fk_browse_is_served_from_speculative_prefetch_until_a_write_lands() {
        const AUTHOR_DDL: &str = "CREATE TABLE AUTHOR (\
             AUTHOR_KEY VARCHAR(40) PRIMARY KEY, \
             SITE VARCHAR(20), \
             NAME VARCHAR(80))";
        const SIM_DDL: &str = "CREATE TABLE SIMULATION (\
             SIMULATION_KEY VARCHAR(40) PRIMARY KEY, \
             SITE VARCHAR(20), \
             TITLE VARCHAR(80), \
             AUTHOR_KEY VARCHAR(40) REFERENCES AUTHOR(AUTHOR_KEY))";
        let tables = ["AUTHOR", "SIMULATION"];
        let mut a = cam_archive(
            Archive::builder(),
            &tables,
            Some("SITE"),
            |db, _, site_no| {
                let rows = if site_no == 0 {
                    [
                        "INSERT INTO AUTHOR VALUES ('A1', 'soton', 'Mark')",
                        "INSERT INTO SIMULATION VALUES ('soton-0', 'soton', 'Local run', 'A1')",
                    ]
                } else {
                    [
                        "INSERT INTO AUTHOR VALUES ('A2', 'cam', 'Remote')",
                        "INSERT INTO SIMULATION VALUES ('cam-0', 'cam', 'Remote run', 'A2')",
                    ]
                };
                for sql in [AUTHOR_DDL, SIM_DDL].into_iter().chain(rows) {
                    db.execute(sql).unwrap();
                }
            },
        );
        a.generate_xuis_federated(4);
        let mut app = WebApp::new(a);
        let sess = login(&mut app, "admin", "hpcc-admin");

        // Rendering the SIMULATION result screen speculatively runs
        // the AUTHOR browse scans behind its FK links.
        let r = app
            .handle(Request::post("/query/SIMULATION", &[("all", "All data")]).with_session(&sess));
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert!(
            r.body_text().contains("/browse/fk/AUTHOR.AUTHOR_KEY"),
            "screen offers FK links: {}",
            r.body_text()
        );
        assert!(!app.archive.prefetch.is_empty(), "scans were parked");

        // The click is a prefetch hit: answered from the parked
        // outcome, annotated in the provenance notice.
        let r =
            app.handle(Request::get("/browse/fk/AUTHOR.AUTHOR_KEY?value=A1").with_session(&sess));
        let body = r.body_text();
        assert!(body.contains("Mark"), "{body}");
        assert!(body.contains("served from speculative prefetch"), "{body}");
        let m = app.handle(Request::get("/metrics")).body_text();
        assert!(m.contains("easia_med_prefetch_hits_total 1"), "{m}");
        assert!(m.contains("easia_med_prefetch_issued_total"), "{m}");

        // A committed write anywhere in the federation invalidates the
        // remaining parked screens: the next click runs live.
        app.archive
            .federation
            .site("cam")
            .unwrap()
            .db
            .borrow_mut()
            .execute("UPDATE AUTHOR SET NAME = 'Renamed' WHERE AUTHOR_KEY = 'A2'")
            .unwrap();
        let r =
            app.handle(Request::get("/browse/fk/AUTHOR.AUTHOR_KEY?value=A2").with_session(&sess));
        let body = r.body_text();
        assert!(body.contains("Renamed"), "stale screen never shown: {body}");
        assert!(!body.contains("served from speculative prefetch"), "{body}");
        let m = app.handle(Request::get("/metrics")).body_text();
        assert!(m.contains("easia_med_prefetch_stale_total 1"), "{m}");
    }

    /// The prefetch statements a federated screen issues are pinned to
    /// what the per-cell walk issued before link targets were resolved
    /// per column (the list below was printed by that code): columns in
    /// result order, the FK target before the referencing tables, a
    /// hub-local target never, duplicates once, cut at four.
    #[test]
    fn federated_screen_issues_the_same_prefetches_in_the_same_order() {
        const DDL: [&str; 4] = [
            "CREATE TABLE AUTHOR (\
             AUTHOR_KEY VARCHAR(40) PRIMARY KEY, SITE VARCHAR(20), NAME VARCHAR(80))",
            "CREATE TABLE SIMULATION (\
             SIMULATION_KEY VARCHAR(40) PRIMARY KEY, SITE VARCHAR(20), \
             AUTHOR_KEY VARCHAR(40) REFERENCES AUTHOR(AUTHOR_KEY), \
             REVIEWER VARCHAR(40) REFERENCES AUTHOR(AUTHOR_KEY))",
            "CREATE TABLE RESULT_FILE (\
             FILE_NAME VARCHAR(40) PRIMARY KEY, SITE VARCHAR(20), \
             SIMULATION_KEY VARCHAR(40) REFERENCES SIMULATION(SIMULATION_KEY))",
            "CREATE TABLE NOTE (\
             NOTE_KEY VARCHAR(40) PRIMARY KEY, \
             SIMULATION_KEY VARCHAR(40) REFERENCES SIMULATION(SIMULATION_KEY))",
        ];
        // NOTE stays hub-local: its browse link is never prefetched.
        let tables = ["AUTHOR", "SIMULATION", "RESULT_FILE"];
        let mut a = cam_archive(
            Archive::builder(),
            &tables,
            Some("SITE"),
            |db, _, site_no| {
                let (ddl, rows) = if site_no == 0 {
                    let authors =
                    "INSERT INTO AUTHOR VALUES ('A1', 'soton', 'Mark'), ('A3', 'soton', 'Denis')";
                    let simulations = "INSERT INTO SIMULATION VALUES ('s0', 'soton', 'A1', NULL), \
                     ('s1', 'soton', 'A1', 'A3'), ('s2', 'soton', 'A3', 'A1')";
                    (&DDL[..], [authors, simulations])
                } else {
                    let authors = "INSERT INTO AUTHOR VALUES ('A2', 'cam', 'Remote')";
                    let simulations = "INSERT INTO SIMULATION VALUES ('c0', 'cam', 'A2', 'A2')";
                    (&DDL[..3], [authors, simulations])
                };
                for sql in ddl.iter().copied().chain(rows) {
                    db.execute(sql).unwrap();
                }
            },
        );
        a.generate_xuis_federated(4);
        let mut app = WebApp::new(a);
        let sess = login(&mut app, "admin", "hpcc-admin");

        let simulation = app.archive.xuis.table("SIMULATION").unwrap();
        let (sql, params) = build_join_query(simulation, &BTreeMap::new()).unwrap();
        let rs = app.archive.federated_query(&sql, &params).unwrap().rs;
        assert_eq!(rs.rows.len(), 4);
        let simulation = app.archive.xuis.table("SIMULATION").unwrap();
        let issued = app.link_prefetches(simulation, &rs);
        assert_eq!(format!("{issued:?}"), ISSUED_BEFORE);

        // The screen itself parks exactly those four.
        let r = app
            .handle(Request::post("/query/SIMULATION", &[("all", "All data")]).with_session(&sess));
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(app.archive.prefetch.len(), 4);
        // A hub-only screen has no federated link to follow.
        let before = app.archive.prefetch.len();
        let r =
            app.handle(Request::post("/query/NOTE", &[("all", "All data")]).with_session(&sess));
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(app.archive.prefetch.len(), before);
    }

    /// See `federated_screen_issues_the_same_prefetches_in_the_same_order`.
    const ISSUED_BEFORE: &str = "[\
        (\"SELECT * FROM RESULT_FILE WHERE SIMULATION_KEY = ?\", [Str(\"c0\")]), \
        (\"SELECT * FROM AUTHOR WHERE AUTHOR_KEY = ?\", [Str(\"A2\")]), \
        (\"SELECT * FROM RESULT_FILE WHERE SIMULATION_KEY = ?\", [Str(\"s0\")]), \
        (\"SELECT * FROM AUTHOR WHERE AUTHOR_KEY = ?\", [Str(\"A1\")])]";

    #[test]
    fn admission_sheds_open_loop_burst_with_drain_derived_retry_after() {
        use crate::admission::{AdmissionConfig, ClassLimits, RouteClass};
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .build();
        turbulence::install_schema(&mut a).unwrap();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        // One virtual server, one queue slot, 10 s modelled per page:
        // of three simultaneous arrivals the third must shed.
        let cfg = AdmissionConfig::default()
            .with_class(RouteClass::Browse, ClassLimits::new(1, 1).with_floor(10.0));
        let mut app = WebApp::with_admission(a, cfg);
        // The login occupies the single virtual server for 10 s, the
        // first page takes the one queue slot, the second is shed.
        let sess = login(&mut app, "guest", "guest");
        let now = app.archive.net.now();
        let r1 = app.handle_at(Request::get("/tables").with_session(&sess), now);
        assert_eq!(r1.status, 200, "queue slot absorbs the first");
        let r2 = app.handle_at(Request::get("/tables").with_session(&sess), now);
        assert_eq!(r2.status, 503, "{}", r2.body_text());
        // The head of the queue starts when the login's 10 s finish —
        // that drain time is the Retry-After hint.
        assert_eq!(r2.retry_after, Some(10));
        assert!(r2.body_text().contains("overloaded"), "{}", r2.body_text());
        // Shed and admitted totals are visible on /metrics, and the
        // shed request was recorded on the 503 counters.
        let m = app.handle(Request::get("/metrics")).body_text();
        assert!(
            m.contains("easia_http_shed_total{class=\"browse\"} 1"),
            "{m}"
        );
        assert!(
            m.contains("easia_http_requests_total{route=\"tables\",status=\"503\"} 1"),
            "{m}"
        );
        // Once the burst drains, the same client is admitted again.
        let r = app.handle_at(Request::get("/tables").with_session(&sess), now + 30.0);
        assert_eq!(r.status, 200);
    }

    /// The turbulence demo archive plus a federated (and empty) SENSOR
    /// table, partitioned hub + cam.
    fn sensor_archive() -> Archive {
        let mut a = cam_archive(Archive::builder(), &["SENSOR"], None, |db, _, _| {
            db.execute(
                "CREATE TABLE SENSOR (\
                 SENSOR_KEY VARCHAR(40) PRIMARY KEY, \
                 TITLE VARCHAR(80))",
            )
            .unwrap();
        });
        turbulence::install_schema(&mut a).unwrap();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        a.generate_xuis_federated(4);
        a
    }

    #[test]
    fn shed_retry_after_matches_fs_and_federation_derivations() {
        // Satellite pin: all 503 paths — file-server unavailability
        // (PR 1), federation FailClosed (PR 3), and admission shedding
        // — derive Retry-After through the one shared helper. Crash
        // the file-server host and the federated site's host over the
        // same window and check the two layers' headers agree exactly.
        let mut a = sensor_archive();
        let rs =
            a.db.execute("SELECT download_result FROM RESULT_FILE LIMIT 1")
                .unwrap();
        let url = rs.rows[0][0].to_string();
        // Both hosts down until well past the federation deadline, so
        // neither layer can wait the outage out.
        let now = a.net.now();
        let recover = now + 5_000.0;
        let fs_host = a.server("fs1.example").unwrap().0;
        let cam_host = a.federation.site("cam").unwrap().host;
        let mut faults = easia_net::FaultSchedule::new();
        faults.host_crash(fs_host, now, recover);
        faults.host_crash(cam_host, now, recover);
        a.net.set_fault_schedule(faults);
        let mut app = WebApp::new(a);
        let sess = login(&mut app, "admin", "hpcc-admin");
        let fs_503 = app.handle(
            Request::get(&format!("/download?url={}", url_encode(&url))).with_session(&sess),
        );
        assert_eq!(fs_503.status, 503, "{}", fs_503.body_text());
        let fed_503 =
            app.handle(Request::post("/query/SENSOR", &[("all", "All data")]).with_session(&sess));
        assert_eq!(fed_503.status, 503, "{}", fed_503.body_text());
        let expected = (recover - app.archive.net.now()).ceil() as u64;
        assert_eq!(fs_503.retry_after, Some(expected));
        assert_eq!(
            fs_503.retry_after, fed_503.retry_after,
            "layers disagree on Retry-After"
        );
    }

    /// `(tokenized, stored)` DATALINK URL of the demo archive's first
    /// result file.
    fn first_result_file(app: &mut WebApp) -> (String, String) {
        let rs = app
            .archive
            .db
            .execute(
                "SELECT download_result, DLURLCOMPLETE(download_result) FROM RESULT_FILE LIMIT 1",
            )
            .unwrap();
        (rs.rows[0][0].to_string(), rs.rows[0][1].to_string())
    }

    fn get_download(app: &mut WebApp, sess: &str, url: &str) -> Response {
        app.handle(Request::get(&format!("/download?url={}", url_encode(url))).with_session(sess))
    }

    /// A counter as the serving archive's `/metrics` prints it.
    fn scraped(app: &mut WebApp, counter: &str) -> f64 {
        let body = app.handle(Request::get("/metrics")).body_text();
        let line = body.lines().find(|l| l.starts_with(counter));
        let value = line.and_then(|l| l.rsplit(' ').next()?.parse().ok());
        value.unwrap_or_else(|| panic!("no {counter} sample in:\n{body}"))
    }

    /// Simulated seconds the demo download takes on a quiet network.
    fn quiet_download_secs() -> f64 {
        let mut twin = app();
        let sess = login(&mut twin, "admin", "hpcc-admin");
        let (url, _) = first_result_file(&mut twin);
        let t0 = twin.archive.net.now();
        assert_eq!(get_download(&mut twin, &sess, &url).status, 200);
        twin.archive.net.now() - t0
    }

    /// `fs1.example` crashes at `first_down` and again a millisecond
    /// after every restart — before a resumed transfer's first byte
    /// clears the path latency — for longer than the mover retries.
    fn never_stays_up(app: &mut WebApp, first_down: f64) -> easia_net::FaultSchedule {
        const PERIOD: f64 = 500.0;
        let fs = app.archive.server("fs1.example").unwrap().0;
        let restarts = (1..=12).map(|k| app.archive.net.now() + PERIOD * f64::from(k));
        let mut faults = easia_net::FaultSchedule::new();
        let mut down = first_down;
        for up in restarts {
            faults.host_crash(fs, down, up);
            down = up + 0.001;
        }
        faults
    }

    /// The hint a 503 must carry: whole seconds to the scheduled restart.
    fn secs_to_restart(app: &WebApp) -> u64 {
        let net = &app.archive.net;
        let fs = app.archive.server("fs1.example").unwrap().0;
        (net.host_up_after(fs) - net.now()).ceil() as u64
    }

    #[test]
    fn download_rides_out_a_link_outage_without_resending_a_byte() {
        let quiet = quiet_download_secs();
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let (url, stored) = first_result_file(&mut app);
        let size = app.archive.file_size_of(&stored).unwrap();
        // Every link drops half-way through the file and stays out for
        // longer than the stall timeout.
        let links = app.archive.net.link_ids();
        let from = app.archive.net.now() + quiet / 2.0;
        let mut faults = easia_net::FaultSchedule::new();
        for l in &links {
            faults.link_outage(*l, from, from + 100.0);
        }
        app.archive.net.set_fault_schedule(faults);

        let r = get_download(&mut app, &sess, &url);
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(r.body.len() as u64, size);
        assert!(app.archive.net.now() > from + 100.0, "outage waited out");
        assert!(scraped(&mut app, "easia_transfer_retries_total") >= 1.0);
        let resumed = scraped(&mut app, "easia_transfer_bytes_resumed_total");
        assert!(resumed > 0.0 && resumed < size as f64, "{resumed}");
        // Resume, not restart: each link carried the payload once.
        for l in links {
            let carried = app.archive.net.link_bytes(l);
            assert!((carried - size as f64).abs() < 1.0, "{carried} vs {size}");
        }
    }

    #[test]
    fn crash_inside_a_package_ship_fails_the_job_before_it_runs() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let (_, stored) = first_result_file(&mut app);
        // A catalogue operation whose code is archived as a DATALINK,
        // so running it ships a package from the hub to the data.
        let ran = std::rc::Rc::new(std::cell::Cell::new(false));
        let flag = ran.clone();
        app.archive.runner.register_native(
            "probe",
            std::rc::Rc::new(move |_, _, _| {
                flag.set(true);
                Ok(String::new())
            }),
        );
        let code = easia_fs::FileContent::Bytes(vec![7; 4096]);
        let code_url = app
            .archive
            .archive_file_local("fs1.example", "/codes/probe.bin", code)
            .unwrap();
        app.archive
            .db
            .execute_with_params(
                "INSERT INTO code_file VALUES ('probe.bin', 'NATIVE', 'probe', ?)",
                &[Value::Str(code_url)],
            )
            .unwrap();
        let mut doc = app.archive.xuis.clone();
        easia_xuis::customize::Customizer::new(&mut doc)
            .add_operation(
                "RESULT_FILE",
                "DOWNLOAD_RESULT",
                easia_xuis::Operation {
                    name: "Probe".into(),
                    op_type: "NATIVE".into(),
                    filename: "probe".into(),
                    format: "raw".into(),
                    guest_access: true,
                    conditions: vec![],
                    location: easia_xuis::Location::DatabaseResult {
                        colid: "CODE_FILE.DOWNLOAD_CODE_FILE".into(),
                        conditions: vec![easia_xuis::Condition {
                            colid: "CODE_FILE.CODE_NAME".into(),
                            eq: "probe.bin".into(),
                        }],
                    },
                    description: None,
                    parameters: vec![],
                },
            )
            .unwrap();
        app.archive.set_xuis(doc);
        let post = Request::post("/op/RESULT_FILE/Probe", &[("dataset", stored.as_str())])
            .with_session(&sess);

        // On a quiet network the package ships and the code runs.
        let r = app.handle(post.clone());
        assert!(
            r.body_text().contains("Operation complete"),
            "{}",
            r.body_text()
        );
        assert_eq!(scraped(&mut app, "easia_transfer_completed_total"), 1.0);
        assert!(ran.replace(false));
        app.archive.cache = None;

        // The data server passes the pre-flight, then crashes with the
        // package in flight and never stays up long enough to take it.
        let first_down = app.archive.net.now() + 0.001;
        let faults = never_stays_up(&mut app, first_down);
        app.archive.net.set_fault_schedule(faults);
        let r = app.handle(post);
        assert_eq!(r.status, 503, "{}", r.body_text());
        assert_eq!(r.retry_after, Some(secs_to_restart(&app)));
        assert_eq!(r.retry_after, Some(500), "read off the fault schedule");
        assert!(!ran.get(), "the code must not run without its package");
        assert_eq!(scraped(&mut app, "easia_transfer_failed_total"), 1.0);
        let stats = app.archive.stats.get("Probe").unwrap();
        assert_eq!((stats.runs, stats.failures), (1, 1), "only the quiet run");
        let progress = app.handle(Request::get("/progress").with_session(&sess));
        assert!(progress.body_text().contains("Probe</td><td>Failed("));
    }

    #[test]
    fn crash_inside_a_download_is_waited_out_or_a_503() {
        let quiet = quiet_download_secs();
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let (url, stored) = first_result_file(&mut app);
        let size = app.archive.file_size_of(&stored).unwrap();
        let fs = app.archive.server("fs1.example").unwrap().0;

        // One crash, one restart: the download resumes after it.
        let down = app.archive.net.now() + quiet / 2.0;
        let mut faults = easia_net::FaultSchedule::new();
        faults.host_crash(fs, down, down + 90.0);
        app.archive.net.set_fault_schedule(faults);
        let r = get_download(&mut app, &sess, &url);
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(r.body.len() as u64, size);
        assert!(app.archive.net.now() > down + 90.0);
        assert!(scraped(&mut app, "easia_transfer_downtime_wait_seconds_total") > 0.0);

        // A restart that never holds: the mover gives up, and the
        // answer is the 503 the pre-flight would give, not a 400.
        let (url, _) = first_result_file(&mut app);
        let first_down = app.archive.net.now() + quiet / 2.0;
        let faults = never_stays_up(&mut app, first_down);
        app.archive.net.set_fault_schedule(faults);
        let r = get_download(&mut app, &sess, &url);
        assert_eq!(r.status, 503, "{}", r.body_text());
        assert_eq!(r.retry_after, Some(secs_to_restart(&app)));
        assert!(r.body_text().contains("fs1.example is unavailable"));
    }

    #[test]
    fn uploaded_run_shows_on_progress_and_stats() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let (_, stored) = first_result_file(&mut app);
        let r = app.handle(
            Request::post(
                "/upload",
                &[
                    ("dataset", stored.as_str()),
                    ("code", "INPUTSIZE\nPRINTNUM\nHALT"),
                ],
            )
            .with_session(&sess),
        );
        assert!(
            r.body_text().contains("ran in the sandbox"),
            "{}",
            r.body_text()
        );
        let progress = app.handle(Request::get("/progress").with_session(&sess));
        assert!(
            progress
                .body_text()
                .contains(":upload:main.epc</td><td>Done"),
            "{}",
            progress.body_text()
        );
        let stats = app.handle(Request::get("/stats").with_session(&sess));
        assert!(
            stats
                .body_text()
                .contains("<td>upload:main.epc</td><td>1</td><td>0</td>"),
            "{}",
            stats.body_text()
        );
    }

    #[test]
    fn logout_drops_the_outputs_of_that_session_only() {
        let mut app = app();
        let (_, stored) = first_result_file(&mut app);
        let leaving = login(&mut app, "admin", "hpcc-admin");
        let staying = login(&mut app, "guest", "guest");
        let form = [("dataset", stored.as_str()), ("slice", "z0"), ("type", "u")];
        for sess in [&leaving, &staying] {
            let r = app.handle(Request::post("/op/RESULT_FILE/GetImage", &form).with_session(sess));
            assert!(
                r.body_text().contains("slice_u_z0.ppm"),
                "{}",
                r.body_text()
            );
        }
        assert_eq!(app.outputs.len(), 2);
        let r = app.handle(Request::get("/logout").with_session(&leaving));
        assert_eq!(r.status, 302);
        let kept: Vec<_> = app.outputs.keys().map(|(owner, _)| owner).collect();
        assert_eq!(kept, [&staying]);
        let r = app.handle(Request::get("/result/slice_u_z0.ppm").with_session(&staying));
        assert_eq!(r.status, 200);
    }

    /// Label, admission class and status of every route shape, both
    /// methods where both exist, and the malformed neighbours of each.
    /// The triples were printed by `route_label`, `classify` and
    /// `dispatch` at the commit before `Route` replaced them; the last
    /// column of the request says whether it carries the admin session.
    /// Rows run in order on one portal: the logout near the end is what
    /// turns the final `/tables` into a redirect.
    #[test]
    fn every_route_shape_keeps_its_label_class_and_status() {
        use RouteClass::{Browse, Download, Scan};
        type Row<'a> = (
            &'a str,
            &'a str,
            &'a [(&'a str, &'a str)],
            bool,
            &'a str,
            RouteClass,
            u16,
        );
        #[rustfmt::skip]
        let rows: &[Row] = &[
            ("GET", "/", &[], false, "root", Browse, 200),
            ("GET", "/login", &[], false, "login", Browse, 200),
            ("POST", "/login", &[("username", "guest"), ("password", "wrong")], false, "login", Browse, 200),
            ("GET", "/tables", &[], false, "tables", Browse, 302),
            ("GET", "/metrics", &[], false, "metrics", Browse, 200),
            ("GET", "/metrics/extra", &[], false, "metrics", Browse, 200),
            ("POST", "/metrics", &[], false, "metrics", Browse, 302),
            ("GET", "/nonsense", &[], false, "other", Browse, 302),
            ("POST", "/query/SENSOR", &[("all", "All data")], false, "query", Scan, 302),
            ("GET", "/", &[], true, "root", Browse, 302),
            ("POST", "/", &[], true, "root", Browse, 404),
            ("GET", "/login", &[], true, "login", Browse, 200),
            ("GET", "/login/extra", &[], true, "login", Browse, 200),
            ("POST", "/login/extra", &[("username", "guest"), ("password", "guest")], true, "login", Browse, 302),
            ("POST", "/metrics", &[], true, "metrics", Browse, 404),
            ("GET", "/tables", &[], true, "tables", Browse, 200),
            ("GET", "//tables//", &[], true, "tables", Browse, 200),
            ("GET", "/tables/x", &[], true, "tables", Browse, 404),
            ("POST", "/tables", &[], true, "tables", Browse, 404),
            ("GET", "/query/SIMULATION", &[], true, "query", Browse, 200),
            ("GET", "/query/NOPE", &[], true, "query", Browse, 404),
            ("GET", "/query/a/b/c", &[], true, "query", Browse, 404),
            ("GET", "/query", &[], true, "query", Browse, 404),
            ("POST", "/query/SIMULATION", &[("all", "All data")], true, "query", Browse, 200),
            ("POST", "/query/SENSOR", &[("all", "All data")], true, "query", Scan, 200),
            ("POST", "/query/SENSOR/x", &[], true, "query", Scan, 404),
            ("POST", "/query/NOPE", &[], true, "query", Browse, 404),
            ("POST", "/query", &[], true, "query", Browse, 404),
            ("GET", "/browse/fk/AUTHOR.AUTHOR_KEY?value=A1", &[], true, "browse", Browse, 200),
            ("GET", "/browse/pk/SENSOR.SENSOR_KEY?value=x", &[], true, "browse", Scan, 200),
            ("GET", "/browse/zz/AUTHOR.AUTHOR_KEY", &[], true, "browse", Browse, 404),
            ("GET", "/browse/fk/nodot", &[], true, "browse", Browse, 400),
            ("GET", "/browse/fk", &[], true, "browse", Browse, 404),
            ("GET", "/browse/fk/SENSOR.SENSOR_KEY/extra", &[], true, "browse", Scan, 404),
            ("POST", "/browse/fk/SENSOR.SENSOR_KEY", &[], true, "browse", Browse, 404),
            ("GET", "/lob/SIMULATION/DESCRIPTION?SIMULATION_KEY=S01", &[], true, "lob", Download, 200),
            ("GET", "/lob/SIMULATION", &[], true, "lob", Download, 404),
            ("POST", "/lob/SIMULATION/DESCRIPTION", &[], true, "lob", Download, 404),
            ("GET", "/op/RESULT_FILE/GetImage?dataset=x", &[], true, "op", Browse, 200),
            ("GET", "/op/RESULT_FILE/Nope", &[], true, "op", Browse, 404),
            ("GET", "/op/RESULT_FILE", &[], true, "op", Browse, 404),
            ("POST", "/op/RESULT_FILE/GetImage", &[], true, "op", Scan, 400),
            ("POST", "/op/RESULT_FILE", &[], true, "op", Scan, 404),
            ("GET", "/result/none.ppm", &[], true, "result", Download, 404),
            ("GET", "/result", &[], true, "result", Download, 404),
            ("POST", "/result/none.ppm", &[], true, "result", Download, 404),
            ("GET", "/download", &[], true, "download", Download, 400),
            ("GET", "/download/x", &[], true, "download", Download, 404),
            ("POST", "/download", &[], true, "download", Download, 404),
            ("GET", "/upload", &[], true, "upload", Browse, 200),
            ("POST", "/upload", &[], true, "upload", Scan, 400),
            ("GET", "/upload/x", &[], true, "upload", Browse, 404),
            ("GET", "/federated", &[], true, "federated", Browse, 200),
            ("POST", "/federated", &[], true, "federated", Scan, 404),
            ("POST", "/federated/explain/SENSOR", &[("all", "All data")], true, "federated_explain", Scan, 200),
            ("POST", "/federated/explain/SIMULATION", &[], true, "federated_explain", Scan, 400),
            ("POST", "/federated/explain/NOPE", &[], true, "federated_explain", Scan, 404),
            ("GET", "/federated/explain/SENSOR", &[], true, "federated_explain", Browse, 404),
            ("POST", "/federated/explain", &[], true, "federated_explain", Scan, 404),
            ("POST", "/federated/other/SENSOR", &[], true, "federated", Scan, 404),
            ("GET", "/progress", &[], true, "progress", Browse, 200),
            ("POST", "/progress", &[], true, "progress", Browse, 404),
            ("GET", "/stats", &[], true, "stats", Browse, 200),
            ("GET", "/stats/x", &[], true, "stats", Browse, 404),
            ("GET", "/users", &[], true, "users", Browse, 200),
            ("POST", "/users", &[], true, "users", Browse, 400),
            ("GET", "/no/such/route", &[], true, "other", Browse, 404),
            ("POST", "/logout", &[], true, "logout", Browse, 404),
            ("GET", "/logout/x", &[], true, "logout", Browse, 404),
            ("GET", "/logout", &[], true, "logout", Browse, 302),
            ("GET", "/tables", &[], true, "tables", Browse, 302),
        ];
        assert!(rows.len() >= 30);
        let mut app = WebApp::new(sensor_archive());
        let sess = login(&mut app, "admin", "hpcc-admin");
        for &(method, path, form, authed, label, class, status) in rows {
            let mut req = match method {
                "GET" => Request::get(path),
                _ => Request::post(path, form),
            };
            if authed {
                req = req.with_session(&sess);
            }
            let route = Route::of(&req);
            let got = (
                route.label(),
                route.class(&app.archive),
                app.handle(req).status,
            );
            assert_eq!(got, (label, class, status), "{method} {path}");
        }
    }

    #[test]
    fn unknown_routes_404() {
        let mut app = app();
        let sess = login(&mut app, "guest", "guest");
        assert_eq!(
            app.handle(Request::get("/nonsense").with_session(&sess))
                .status,
            404
        );
        assert_eq!(
            app.handle(Request::get("/query/NOPE").with_session(&sess))
                .status,
            404
        );
    }
}

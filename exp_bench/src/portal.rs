//! Portal ops shared by `hub_browse`, `fed_browse` and `active_ops`:
//! raw request → `Request` → `WebApp::handle_at` → checked answer, and
//! (traced run) the replay of the same inputs through each layer's
//! public functions on the twin.

use crate::alloc;
use crate::harness::{Answer, Counters, Recorder, Report};
use crate::metrics::class_id;
use crate::trace::{SpanId, Tracer};
use easia_core::{Archive, RetryPolicy, WebApp};
use easia_crypto::sha256::{hex, sha256};
use easia_datalink::DatalinkUrl;
use easia_db::sql::ast::Stmt;
use easia_db::sql::{expr_to_sql, SelectStmt};
use easia_db::{ResultSet, Value};
use easia_med::planner::{externalize, plan_join, strip_qualifiers};
use easia_med::{plan_select, ScanRequest};
use easia_ops::JobSpec;
use easia_web::browse::{render_results, BrowseContext};
use easia_web::html::page;
use easia_web::http::{parse_urlencoded, Method, Request, Response};
use easia_web::qbe::{build_browse_query, build_join_query, join_tables, render_query_form};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The three foreign sites of `fed_browse`.
pub const SITES: [&str; 3] = ["cam", "edin", "mcc"];

/// One request as it arrives: method, URL and urlencoded body.
#[derive(Debug, Clone)]
pub struct RawRequest {
    /// POST (else GET).
    pub post: bool,
    /// Path with optional `?query`.
    pub url: String,
    /// `application/x-www-form-urlencoded` body.
    pub body: String,
}

impl RawRequest {
    /// A GET.
    pub fn get(url: String) -> Self {
        RawRequest {
            post: false,
            url,
            body: String::new(),
        }
    }

    /// A POST with form fields.
    pub fn post(url: &str, form: &[(&str, &str)]) -> Self {
        let body: Vec<String> = form
            .iter()
            .map(|(k, v)| format!("{k}={}", easia_web::http::url_encode(v)))
            .collect();
        RawRequest {
            post: true,
            url: url.to_string(),
            body: body.join("&"),
        }
    }
}

/// What an op calls.
#[derive(Debug, Clone)]
pub enum Call {
    /// A portal request through `WebApp::handle_at`.
    Http(RawRequest),
    /// A statement through `Archive::federated_query`.
    Fed(String),
}

/// What a correct answer looks like.
#[derive(Debug, Clone)]
pub struct Expect {
    /// HTTP status.
    pub status: u16,
    /// Exact row count of the answer, where it has rows.
    pub rows: Option<usize>,
    /// The body must be at least this long.
    pub min_body: usize,
}

impl Expect {
    /// A 200 with `rows` rows.
    pub fn rows(rows: usize) -> Self {
        Expect {
            status: 200,
            rows: Some(rows),
            min_body: 1,
        }
    }

    /// A 200 whose body is at least `min_body` bytes.
    pub fn body(min_body: usize) -> Self {
        Expect {
            status: 200,
            rows: None,
            min_body,
        }
    }
}

/// One scripted op.
#[derive(Debug, Clone)]
pub struct Op {
    /// Request class (index into `metrics::CLASSES`).
    pub class: usize,
    /// The call.
    pub call: Call,
    /// The check.
    pub expect: Expect,
}

impl Op {
    /// A portal op.
    pub fn http(class: &str, raw: RawRequest, expect: Expect) -> Self {
        Op {
            class: class_id(class),
            call: Call::Http(raw),
            expect,
        }
    }
}

/// SHA-256 over the script's classes and requests.
pub fn script_digest(ops: &[Op]) -> String {
    let mut t = String::new();
    for op in ops {
        let _ = match &op.call {
            Call::Http(r) => writeln!(
                t,
                "{}|{}|{}|{}|{:?}",
                op.class, r.post, r.url, r.body, op.expect.rows
            ),
            Call::Fed(sql) => writeln!(t, "{}|fed|{sql}|{:?}", op.class, op.expect.rows),
        };
    }
    hex(&sha256(t.as_bytes()))
}

/// Decode a raw request the way a server front end would.
fn decode(raw: &RawRequest, session: &str) -> Request {
    let mut req = if raw.post {
        let mut r = Request::post(&raw.url, &[]);
        r.form = parse_urlencoded(&raw.body);
        r
    } else {
        Request::get(&raw.url)
    };
    req.session = Some(session.to_string());
    req
}

/// Rows a result page says it shows.
fn page_rows(body: &[u8]) -> Option<usize> {
    let needle = b" row(s)</p>";
    let end = body.windows(needle.len()).position(|w| w == needle)?;
    let start = body[..end].iter().rposition(|b| !b.is_ascii_digit())? + 1;
    std::str::from_utf8(&body[start..end]).ok()?.parse().ok()
}

/// The measured portal, its session, and (traced run) the twin.
pub struct Portal {
    /// The instance under test.
    pub app: WebApp,
    session: String,
    /// Same seed, same data; absorbs the replays.
    pub twin: Option<Box<WebApp>>,
    twin_session: String,
    sites: Vec<&'static str>,
}

fn open_session(app: &mut WebApp) -> Response {
    let now = app.archive.net.now();
    app.handle_at(
        Request::post(
            "/login",
            &[("username", "admin"), ("password", "hpcc-admin")],
        ),
        now,
    )
}

impl Portal {
    /// Wrap a built archive (and its twin when tracing).
    pub fn new(archive: Archive, twin: Option<Archive>, sites: &[&'static str]) -> Self {
        Portal {
            app: WebApp::new(archive),
            session: String::new(),
            twin: twin.map(|t| Box::new(WebApp::new(t))),
            twin_session: String::new(),
            sites: sites.to_vec(),
        }
    }

    /// Every round opens with a login: portal sessions live one
    /// simulated day and the WAN clock runs fast.
    pub fn login(&mut self, rec: &mut Recorder, tr: &mut Tracer) {
        tr.next_op();
        let a0 = alloc::snapshot();
        let o = tr.begin("op.http", None);
        let resp = open_session(&mut self.app);
        let ns = tr.end(o);
        let a1 = alloc::snapshot();
        rec.allocs(a1.0 - a0.0, a1.1 - a0.1);
        let error = match (&resp.set_session, resp.status) {
            (Some(s), 302) => {
                self.session = s.clone();
                None
            }
            _ => Some(format!("login answered {}", resp.status)),
        };
        rec.op(Answer {
            class: class_id("login"),
            ns,
            status: resp.status,
            rows: None,
            body_len: resp.body.len(),
            error,
        });
        if let Some(tw) = &mut self.twin {
            if let Some(s) = open_session(tw).set_session {
                self.twin_session = s;
            }
        }
    }

    /// Run one scripted op on the measured instance, check it, and
    /// (traced run) replay it layer by layer on the twin.
    pub fn run(&mut self, op: &Op, rec: &mut Recorder, tr: &mut Tracer) {
        tr.next_op();
        let m = &self.app.archive.obs.metrics;
        let prefetch_hits = m.value("easia_med_prefetch_hits_total", &[]).unwrap_or(0.0);
        let cache_hits = self.app.archive.cache.as_ref().map(|c| c.stats().hits);
        let a0 = alloc::snapshot();
        let (ns, root, status, rows, body_len) = match &op.call {
            Call::Http(raw) => {
                let o = tr.begin("op.http", None);
                let req = decode(raw, &self.session);
                let now = self.app.archive.net.now();
                let resp = self.app.handle_at(req, now);
                let root = o.id();
                let ns = tr.end(o);
                let rows = op.expect.rows.and_then(|_| page_rows(&resp.body));
                (ns, root, resp.status, rows, resp.body.len())
            }
            Call::Fed(sql) => {
                let o = tr.begin("op.fed", None);
                let out = self.app.archive.federated_query(sql, &[]);
                let root = o.id();
                let ns = tr.end(o);
                match out {
                    Ok(out) => {
                        let cells: usize = out
                            .rs
                            .rows
                            .iter()
                            .flatten()
                            .map(|v| v.to_string().len())
                            .sum();
                        (ns, root, 200, Some(out.rs.rows.len()), cells)
                    }
                    Err(_) => (ns, root, 500, None, 0),
                }
            }
        };
        let a1 = alloc::snapshot();
        rec.allocs(a1.0 - a0.0, a1.1 - a0.1);
        let e = &op.expect;
        let error = if status != e.status {
            Some(format!("status {status}, expected {}", e.status))
        } else if e.rows.is_some() && rows != e.rows {
            Some(format!("{rows:?} row(s), expected {:?}", e.rows))
        } else if body_len < e.min_body {
            Some(format!("body of {body_len} B, expected >= {}", e.min_body))
        } else {
            None
        };
        rec.op(Answer {
            class: op.class,
            ns,
            status,
            rows,
            body_len,
            error,
        });

        if !tr.enabled() {
            return;
        }
        // The layers a cache served did no work: a prefetched screen
        // skips the federation, a cached result skips the job.
        let m = &self.app.archive.obs.metrics;
        let live = Live {
            federation: m.value("easia_med_prefetch_hits_total", &[]).unwrap_or(0.0)
                == prefetch_hits,
            job: self.app.archive.cache.as_ref().map(|c| c.stats().hits) == cache_hits,
        };
        let tw = self.twin.as_mut().expect("traced run has a twin");
        match &op.call {
            Call::Http(raw) => {
                replay_http(tw, &self.twin_session, raw, root, tr, live, &self.sites)
            }
            Call::Fed(sql) => {
                if live.federation {
                    replay_federated(&mut tw.archive, sql, &[], root, tr, &self.sites);
                }
            }
        }
    }

    /// Counters every portal workload reads off the measured instance.
    pub fn counters(&self) -> Counters {
        let a = &self.app.archive;
        let m = &a.obs.metrics;
        let v = |name: &str, labels: &[(&str, &str)]| m.value(name, labels).unwrap_or(0.0);
        let over = |name: &str, key: &str, vals: &[&str]| -> f64 {
            vals.iter().map(|x| v(name, &[(key, x)])).sum()
        };
        let sites = &self.sites;
        let mut c = Counters::new();
        c.insert("sim_s", a.net.now());
        c.insert(
            "link_bytes",
            a.net.link_ids().iter().map(|l| a.net.link_bytes(*l)).sum(),
        );
        c.insert(
            "med_bytes_wire",
            over("easia_med_bytes_wire_total", "site", sites),
        );
        c.insert(
            "transfer_bytes",
            v("easia_transfer_bytes_delivered_total", &[]),
        );
        c.insert("transfer_retries", v("easia_transfer_retries_total", &[]));
        c.insert("prefetch_hits", v("easia_med_prefetch_hits_total", &[]));
        c.insert("prefetch_stale", v("easia_med_prefetch_stale_total", &[]));
        c.insert("prefetch_issued", v("easia_med_prefetch_issued_total", &[]));
        c.insert(
            "shed",
            over(
                "easia_http_shed_total",
                "class",
                &["browse", "scan", "download"],
            ),
        );
        c.insert("rows_scanned", v("easia_db_rows_scanned_total", &[]));
        c.insert("rows_returned", v("easia_db_rows_returned_total", &[]));
        c.insert("index_scans", v("easia_db_index_scans_total", &[]));
        c.insert("heap_scans", v("easia_db_heap_scans_total", &[]));
        c.insert(
            "statements",
            over(
                "easia_db_statements_total",
                "kind",
                &[
                    "select", "insert", "update", "delete", "ddl", "begin", "commit", "rollback",
                ],
            ),
        );
        c.insert(
            "versions_created",
            v("easia_db_mvcc_versions_created_total", &[]),
        );
        c.insert("hub_writes", a.db.write_counter() as f64);
        c.insert(
            "rows_shipped",
            over("easia_med_rows_shipped_total", "site", sites),
        );
        let mut pruned_labels = vec!["local"];
        pruned_labels.extend(sites.iter());
        c.insert(
            "rows_pruned",
            over("easia_med_rows_pruned_total", "site", &pruned_labels),
        );
        c.insert(
            "partial_agg_queries",
            v(
                "easia_med_partial_agg_queries_total",
                &[("table", "SIMULATION")],
            ),
        );
        c.insert(
            "partial_agg_fallbacks",
            over(
                "easia_med_partial_agg_fallbacks_total",
                "reason",
                &[
                    "distinct",
                    "expr-arg",
                    "hub-conjunct",
                    "group-expr",
                    "non-group-column",
                    "wildcard",
                    "disabled",
                ],
            ),
        );
        c.insert(
            "semijoin_keys",
            v(
                "easia_med_semijoin_keys_shipped_total",
                &[("table", "SIMULATION")],
            ),
        );
        c.insert(
            "scan_retries",
            over("easia_med_scan_retries_total", "site", sites),
        );
        c.insert("tokens", a.manager.tokens_issued() as f64);
        if let Some(cache) = &a.cache {
            let s = cache.stats();
            c.insert("op_cache_hits", s.hits as f64);
            c.insert("op_cache_misses", s.misses as f64);
        }
        c
    }

    /// Counts every portal workload derives the same way. `fed_reads`
    /// is how many ops of the counted rounds went to
    /// `Archive::federated_query`; `agg_reads` how many of those were
    /// aggregate statements.
    pub fn layer_counts(d: &Counters, ops: f64, fed_reads: f64, agg_reads: f64, rep: &mut Report) {
        let g = |k: &str| d.get(k).copied().unwrap_or(0.0);
        rep.ratio("sim_s_per_op", g("sim_s"), ops);
        // Every byte a WAN link carried, whichever client put it there:
        // the portal's download and operation paths do not go through
        // the retrying transfer client, so the two counters the issue
        // names would miss them.
        rep.derived(
            "wan_bytes_per_op",
            if ops == 0.0 { 0.0 } else { g("link_bytes") / ops },
            format!(
                "{} link B / {ops} (easia_med_bytes_wire_total {} + easia_transfer_bytes_delivered_total {})",
                g("link_bytes"),
                g("med_bytes_wire"),
                g("transfer_bytes")
            ),
        );
        let (hits, stale) = (g("prefetch_hits"), g("prefetch_stale"));
        rep.derived(
            "easia-core.prefetch_hit_ratio",
            if fed_reads == 0.0 {
                0.0
            } else {
                hits / fed_reads
            },
            format!(
                "{hits} hit / ({hits} hit + {stale} stale + {} miss)",
                fed_reads - hits - stale
            ),
        );
        rep.ratio(
            "easia-core.prefetch_issued_per_op",
            g("prefetch_issued"),
            ops,
        );
        rep.set("easia-core.shed", g("shed"));
        rep.set("easia-core.transfer_retries", g("transfer_retries"));
        rep.ratio(
            "easia-db.rows_scanned_per_row_returned",
            g("rows_scanned"),
            g("rows_returned"),
        );
        rep.ratio(
            "easia-db.index_scan_share",
            g("index_scans"),
            g("index_scans") + g("heap_scans"),
        );
        rep.ratio("easia-db.statements_per_op", g("statements"), ops);
        rep.ratio(
            "easia-db.versions_created_per_op",
            g("versions_created"),
            ops,
        );
        // No hub write happens on a portal read except the staging
        // merge, so every version created there is a staged row.
        rep.ratio(
            "easia-med.stage_rows_per_op",
            g("versions_created"),
            fed_reads,
        );
        rep.ratio("easia-med.hub_writes_per_read", g("hub_writes"), fed_reads);
        rep.ratio(
            "easia-med.rows_shipped_per_op",
            g("rows_shipped"),
            fed_reads,
        );
        rep.ratio("easia-med.rows_pruned_per_op", g("rows_pruned"), fed_reads);
        rep.ratio(
            "easia-med.partial_agg_share",
            g("partial_agg_queries"),
            agg_reads,
        );
        rep.set(
            "easia-med.partial_agg_fallbacks",
            g("partial_agg_fallbacks"),
        );
        rep.ratio(
            "easia-med.semijoin_keys_per_op",
            g("semijoin_keys"),
            fed_reads,
        );
        rep.set("easia-med.scan_retries", g("scan_retries"));
        rep.ratio("easia-datalink.tokens_per_op", g("tokens"), ops);
        rep.ratio(
            "easia-ops.cache_hit_ratio",
            g("op_cache_hits"),
            g("op_cache_hits") + g("op_cache_misses"),
        );
    }
}

/// Which cached layers did real work for the op being replayed.
#[derive(Clone, Copy)]
struct Live {
    federation: bool,
    job: bool,
}

fn replay_http(
    tw: &mut WebApp,
    session: &str,
    raw: &RawRequest,
    root: Option<SpanId>,
    tr: &mut Tracer,
    live: Live,
    sites: &[&str],
) {
    let req = tr.time("easia-web.form_decode_us", root, || decode(raw, session));
    let segs = req.segments();
    let a = &mut tw.archive;
    match (req.method, segs.as_slice()) {
        (Method::Post, ["query", table]) => {
            let Some(xt) = a.xuis.table(table).cloned() else {
                return;
            };
            let Ok((sql, params)) = tr.time("easia-web.qbe_build_us", root, || {
                build_join_query(&xt, &req.form)
            }) else {
                return;
            };
            replay_screen(a, &xt, &sql, &params, root, tr, live, sites);
        }
        (Method::Get, ["browse", _kind, colid]) => {
            let Some((table, column)) = colid.rsplit_once('.') else {
                return;
            };
            let Some(xt) = a.xuis.table(table).cloned() else {
                return;
            };
            let sql = tr.time("easia-web.qbe_build_us", root, || {
                build_browse_query(&xt, column)
            });
            let params = [Value::Str(req.param("value").unwrap_or("").to_string())];
            replay_screen(a, &xt, &sql, &params, root, tr, live, sites);
        }
        (Method::Get, ["query", table]) => {
            if let Some(xt) = a.xuis.table(table) {
                tr.time("easia-web.render_us", root, || {
                    page(
                        &format!("Search {}", xt.display_name()),
                        &render_query_form(xt),
                    )
                });
            }
        }
        (Method::Get, ["lob", table, column]) => {
            let Some(schema) = a.db.schema(table) else {
                return;
            };
            let conj: Vec<String> = schema
                .primary_key
                .iter()
                .map(|pk| format!("{pk} = ?"))
                .collect();
            let params: Vec<Value> = schema
                .primary_key
                .iter()
                .map(|pk| Value::Str(req.param(pk).unwrap_or("").to_string()))
                .collect();
            let sql = format!("SELECT {column} FROM {table} WHERE {}", conj.join(" AND "));
            replay_statement(a, &sql, &params, root, tr, false);
        }
        (Method::Get, ["metrics"]) => {
            tr.time("easia-obs.render_us", root, || a.obs.metrics.render());
        }
        (Method::Get, ["download"]) => {
            let Some(url) = req.param("url") else { return };
            let Ok((parsed, token)) = DatalinkUrl::parse_tokenized(url) else {
                return;
            };
            let Some((hid, server)) = a.servers.get(&parsed.host).cloned() else {
                return;
            };
            let request = parsed.server_request(token.as_deref());
            let now = a.clock.now();
            let data = tr.time("easia-fs.read_us", root, || {
                server.borrow().read_file(&request, now)
            });
            let bytes = data.map_or(0.0, |d| d.len() as f64);
            // The route moves the file with one bare transfer; the
            // retrying client and the engine are replayed on the same
            // size, over the twin's idle net.
            let (client, metrics) = (a.client_host, &a.transfer_metrics);
            let net = &mut a.net;
            tr.time("easia-core.transfer_us", root, || {
                easia_core::transfer_with_retry_observed(
                    net,
                    hid,
                    client,
                    bytes,
                    &RetryPolicy::default(),
                    Some(metrics),
                )
                .is_ok()
            });
            tr.time("easia-net.engine_us", root, || {
                net.transfer(hid, client, bytes);
                net.run_until_idle()
            });
            tr.count("easia-net.transfers", 1);
        }
        (Method::Post, ["op", table, op_name]) if live.job => {
            let Some(dataset_url) = req.param("dataset") else {
                return;
            };
            let mut params: BTreeMap<String, String> = req.form.clone();
            params.remove("dataset");
            replay_job(a, table, op_name, dataset_url, params, Vec::new(), root, tr);
        }
        (Method::Post, ["upload"]) => {
            let dataset_url = req.param("dataset").unwrap_or("").to_string();
            let code = req.param("code").unwrap_or("").as_bytes().to_vec();
            replay_job(
                a,
                "RESULT_FILE",
                "upload",
                &dataset_url,
                BTreeMap::new(),
                code,
                root,
                tr,
            );
        }
        _ => {}
    }
}

/// A result screen: the statement (hub-local or federated) and its
/// rendering.
#[allow(clippy::too_many_arguments)]
fn replay_screen(
    a: &mut Archive,
    xt: &easia_xuis::XuisTable,
    sql: &str,
    params: &[Value],
    root: Option<SpanId>,
    tr: &mut Tracer,
    live: Live,
    sites: &[&str],
) {
    let federated = join_tables(xt)
        .iter()
        .any(|t| a.federation.catalog.is_federated(t));
    let rs = if !federated {
        replay_statement(a, sql, params, root, tr, true)
    } else if live.federation {
        replay_federated(a, sql, params, root, tr, sites)
    } else {
        None
    };
    let Some(rs) = rs else { return };
    // Row-operation applicability is part of handle_at's self time; it
    // is computed here untimed because render_results needs it.
    let table = xt.name.as_str();
    let row_ops: Vec<Vec<easia_xuis::Operation>> = rs
        .rows
        .iter()
        .map(|row| {
            let pairs: Vec<(String, String)> = rs
                .columns
                .iter()
                .zip(row)
                .map(|(c, v)| (format!("{table}.{c}"), v.to_string()))
                .collect();
            a.catalog
                .applicable(table, &pairs, false)
                .into_iter()
                .map(|e| e.op.clone())
                .collect()
        })
        .collect();
    let sizes = |url: &str| a.file_size_of(url);
    let ctx = BrowseContext {
        xuis: &a.xuis,
        table,
        is_guest: false,
        row_operations: row_ops.iter().map(|v| v.iter().collect()).collect(),
        file_size: Some(&sizes),
    };
    tr.time("easia-web.render_us", root, || {
        let html = render_results(&ctx, &rs);
        page(
            &format!("Results from {table}"),
            &format!("<p>{} row(s)</p>{html}", rs.rows.len()),
        )
    });
}

/// Parse (with its lex) under `parent`; returns the SELECT.
fn replay_parse(sql: &str, parent: Option<SpanId>, tr: &mut Tracer) -> Option<SelectStmt> {
    let p = tr.begin("easia-db.parse_us", parent);
    let stmt = easia_db::sql::parse(sql);
    let pid = p.id();
    tr.end(p);
    tr.time("easia-db.lex_us", pid, || {
        easia_db::sql::lexer::lex(sql).is_ok()
    });
    match stmt {
        Ok(Stmt::Select(sel)) => Some(sel),
        _ => None,
    }
}

/// One hub statement: the call, then its parse and access-path choice
/// as children, so `exec_us` is what remains.
fn replay_statement(
    a: &mut Archive,
    sql: &str,
    params: &[Value],
    root: Option<SpanId>,
    tr: &mut Tracer,
    snapshot: bool,
) -> Option<ResultSet> {
    let st = tr.begin("easia-db.statement", root);
    let rs = if snapshot {
        a.snapshot_read(sql, params)
    } else {
        a.db.execute_with_params(sql, params)
    };
    let sid = st.id();
    tr.end(st);
    if let Some(sel) = replay_parse(sql, sid, tr) {
        if let Some(from) = &sel.from {
            if let Some(t) = a.db.table(&from.name) {
                let alias = from.alias.as_deref().unwrap_or(&from.name);
                tr.time("easia-db.plan_us", sid, || {
                    easia_db::plan::choose_access_path(
                        &a.db,
                        t,
                        alias,
                        sel.where_clause.as_ref(),
                        params,
                    )
                    .is_ok()
                });
            }
        }
    }
    rs.ok()
}

/// One federated statement: `Federation::query` on the twin, then its
/// parse, plan, request codec, site scans and batch codec as children,
/// so `gather_merge_us` (pump + staging merge + statement re-run) is
/// what remains. JOIN statements replay parse and plan only: their
/// legs' semi-join key sets exist only inside the gather.
fn replay_federated(
    a: &mut Archive,
    sql: &str,
    params: &[Value],
    root: Option<SpanId>,
    tr: &mut Tracer,
    sites: &[&str],
) -> Option<ResultSet> {
    let transfers_before = transfer_seq(a);
    let q = tr.begin("easia-med.query", root);
    let out = a
        .federation
        .query(&mut a.net, a.db_host, &mut a.db, Some(&a.obs), sql, params);
    let qid = q.id();
    tr.end(q);
    // The probe transfer itself is one of the ids in between.
    let transfers = transfer_seq(a) - transfers_before - 1;
    tr.count("easia-net.transfers", transfers);

    let sel = replay_parse(sql, qid, tr)?;
    if !sel.joins.is_empty() {
        let db = &a.db;
        let local = |t: &str| {
            db.schema(t)
                .map(|s| s.columns.iter().map(|c| c.name.clone()).collect())
        };
        tr.time("easia-med.plan_us", qid, || {
            plan_join(&sel, &a.federation.catalog, &local, params, true).is_ok()
        });
        return out.ok().map(|o| o.rs);
    }
    let table = sel.from.as_ref()?.name.to_ascii_uppercase();
    let ft = a.federation.catalog.table(&table)?.clone();
    let plan = tr
        .time("easia-med.plan_us", qid, || plan_select(&sel, &ft, params))
        .ok()?;
    // The request the plan implies, built as the engine builds it.
    let mut req_params = Vec::new();
    let mut rendered = Vec::new();
    for c in &plan.pushed {
        let e = externalize(&strip_qualifiers(c), params, &mut req_params).ok()?;
        rendered.push(expr_to_sql(&e));
    }
    let request = ScanRequest {
        table: ft.name.clone(),
        columns: plan.columns.clone(),
        predicate: rendered.join(" AND "),
        params: req_params,
        order_by: plan
            .order_limit
            .as_ref()
            .map(|(k, _)| k.clone())
            .unwrap_or_default(),
        limit: plan.order_limit.as_ref().map(|(_, n)| *n),
        resume_from: 0,
        key_filter: None,
        partial_agg: plan.partial_agg.as_ref().map(|p| p.spec()),
    };
    let request = tr.time("easia-med.req_codec_us", qid, || {
        ScanRequest::decode(&request.encode())
    });
    let request = request.ok()?;
    let mut shipped: Vec<Vec<Vec<Value>>> = Vec::new();
    let mut wire_bytes: Vec<f64> = Vec::new();
    for name in sites {
        let Some(site) = a.federation.site(name) else {
            continue;
        };
        let rows = tr.time("easia-med.remote_scan_us", qid, || {
            easia_med::remote::scan_rows(&mut site.db.borrow_mut(), &request)
        });
        shipped.push(rows.unwrap_or_default());
    }
    let batch_rows = a.federation.batch_rows.max(1);
    for rows in &shipped {
        let n = tr.time("easia-med.batch_codec_us", qid, || {
            let mut bytes = 0usize;
            for (seq, chunk) in rows.chunks(batch_rows).enumerate() {
                let frame = easia_med::encode_batch(chunk, seq as u32, 0);
                bytes += frame.len();
                let _ = std::hint::black_box(easia_med::decode_batch(&frame));
            }
            bytes
        });
        wire_bytes.push(n as f64);
    }
    // The engine's share: the same byte sizes, site → hub, side by side
    // on the twin's now-idle net.
    let hub = a.db_host;
    let hosts: Vec<_> = sites
        .iter()
        .filter_map(|s| a.federation.site(s).map(|x| x.host))
        .collect();
    let net = &mut a.net;
    tr.time("easia-net.engine_us", qid, || {
        for (h, b) in hosts.iter().zip(&wire_bytes) {
            net.transfer(*h, hub, b.max(1.0));
        }
        net.run_until_idle()
    });
    out.ok().map(|o| o.rs)
}

/// How many transfers the net has started so far. `SimNet` exposes no
/// counter, so this starts a 1-byte probe on the (scratch) twin and
/// reads the sequence number out of the id's `Debug` form — the one
/// place the harness leans on a rendering instead of a function.
fn transfer_seq(a: &mut Archive) -> u64 {
    let id = a.net.transfer(a.client_host, a.db_host, 1.0);
    a.net.run_until_idle();
    format!("{id:?}")
        .chars()
        .filter(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// An operation or uploaded code run next to the data: read the file,
/// run the job, and time the science kernels the job is made of.
#[allow(clippy::too_many_arguments)]
fn replay_job(
    a: &mut Archive,
    table: &str,
    op_name: &str,
    dataset_url: &str,
    params: BTreeMap<String, String>,
    package: Vec<u8>,
    root: Option<SpanId>,
    tr: &mut Tracer,
) {
    let Ok(parsed) = DatalinkUrl::parse(dataset_url) else {
        return;
    };
    let Some((hid, server)) = a.servers.get(&parsed.host).cloned() else {
        return;
    };
    let dataset = tr.time("easia-fs.read_us", root, || {
        let s = server.borrow();
        let size = s.file_size(&parsed.path).unwrap_or(0);
        s.store()
            .get(&parsed.path)
            .map(|c| c.read_range(0, size))
            .unwrap_or_default()
    });
    let uploaded = !package.is_empty();
    let (op_type, entry) = if uploaded {
        ("EPC".to_string(), "main.epc".to_string())
    } else {
        match a.catalog.find(table, op_name) {
            Some(e) => (e.op.op_type.clone(), e.op.filename.clone()),
            None => return,
        }
    };
    let spec = JobSpec {
        session_id: "replay".into(),
        operation: op_name.to_string(),
        op_type,
        package,
        entry,
        dataset_name: parsed.filename().to_string(),
        dataset,
        params,
        limits: a.op_limits,
    };
    let j = tr.begin("easia-ops.job_us", root);
    let job = a.runner.run(&spec);
    let jid = j.id();
    tr.end(j);
    let bytes = &spec.dataset;
    match op_name {
        "GetImage" => {
            let component = spec.params.get("type").map_or("u", String::as_str);
            let slice = spec.params.get("slice").map_or("z0", String::as_str);
            let axis = easia_sci::Axis::parse(&slice[..1]).unwrap_or(easia_sci::Axis::Z);
            let index = slice[1..].parse().unwrap_or(0);
            tr.time("easia-sci.edf_decode_us", jid, || {
                easia_sci::EdfReader::open(bytes).is_ok()
            });
            let plane = tr.time("easia-sci.slice_us", jid, || {
                easia_sci::extract_plane(bytes, component, axis, index)
            });
            if let Ok(plane) = plane {
                tr.time("easia-sci.render_us", jid, || {
                    easia_sci::render_ppm(&plane, easia_sci::Colormap::Diverging)
                });
            }
        }
        "FieldStats" => {
            tr.time("easia-sci.stats_us", jid, || {
                for c in ["u", "v", "w", "p"] {
                    let _ = std::hint::black_box(easia_sci::stats::dataset_stats(bytes, c));
                }
            });
        }
        _ => {}
    }
    // What the archive then does on the WAN: the job's CPU seconds on
    // the data server and the outputs' trip to the browser.
    let Ok(job) = job else { return };
    let shipped = job.output_bytes() as f64;
    let cpu = (job.instructions as f64 / 1e8).max(0.1);
    let client = a.client_host;
    let net = &mut a.net;
    tr.time("easia-net.engine_us", root, || {
        net.job(hid, cpu);
        net.run_until_idle();
        if shipped > 0.0 {
            net.transfer(hid, client, shipped);
            net.run_until_idle();
        }
    });
    tr.count(
        "easia-net.transfers",
        u64::from(shipped > 0.0) + u64::from(uploaded),
    );
}

/// Kernel probes with fixed inputs, run once per traced run on every
/// workload: the micro cases of `crates/easia-bench/benches/microbench.rs`
/// measured with the harness's own timer.
pub mod probes {
    use super::*;
    use easia_crypto::token::{TokenIssuer, TokenScope};
    use easia_fs::{FileContent, FileServer};
    use std::hint::black_box;
    use std::time::Instant;

    /// Median µs of `f` over `reps` timed calls (after one warm call).
    pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
        f();
        let v: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        crate::stats::median(&v).unwrap_or(0.0)
    }

    fn mb_per_s(bytes: usize, us: f64) -> f64 {
        if us == 0.0 {
            0.0
        } else {
            bytes as f64 / us // B/µs = MB/s
        }
    }

    /// A looping EPC program: the upload class of `active_ops` and the
    /// VM probe both run it.
    pub const UPLOAD_EPC: &str = easia_ops::asm::EXAMPLE_CHECKSUM;

    /// Probes that need only an archive to read the XUIS and registry
    /// from. `generate_ms` re-runs the generation this workload's
    /// set-up ran (federated when the archive has sites).
    pub fn run(a: &mut Archive, rep: &mut Report) {
        // easia-xuis / easia-xml
        let federated = !a.federation.site_names().is_empty();
        rep.set(
            "easia-xuis.generate_ms",
            median_us(3, || {
                if federated {
                    a.generate_xuis_federated(4);
                } else {
                    a.generate_xuis(4);
                }
            }) / 1e3,
        );
        let xml = easia_xuis::to_xml(&a.xuis);
        rep.set(
            "easia-xuis.to_xml_us",
            median_us(9, || {
                black_box(easia_xuis::to_xml(&a.xuis));
            }),
        );
        let us = median_us(9, || {
            black_box(easia_xml::parse_document(&xml).is_ok());
        });
        rep.derived(
            "easia-xml.parse_mb_per_s",
            mb_per_s(xml.len(), us),
            format!("{} B in {us} us", xml.len()),
        );
        rep.set(
            "easia-xuis.table_lookup_us",
            median_us(9, || {
                for _ in 0..1000 {
                    black_box(a.xuis.table(black_box("RESULT_FILE")));
                }
            }) / 1e3,
        );

        // easia-crypto
        let issuer = TokenIssuer::new(b"bench-secret", 3600);
        let path = "/data/S0001/t000.edf";
        rep.set(
            "easia-crypto.token_issue_us",
            median_us(99, || {
                black_box(issuer.issue(TokenScope::Read, "fs1.example", path, 12345));
            }),
        );
        let token = issuer.issue(TokenScope::Read, "fs1.example", path, 12345);
        rep.set(
            "easia-crypto.token_verify_us",
            median_us(99, || {
                black_box(
                    issuer
                        .verify(&token, TokenScope::Read, "fs1.example", path, 13000)
                        .is_ok(),
                );
            }),
        );
        let block = vec![0xabu8; 1 << 20];
        let us = median_us(9, || {
            black_box(sha256(black_box(&block)));
        });
        rep.derived(
            "easia-crypto.sha256_mb_per_s",
            mb_per_s(block.len(), us),
            format!("{} B in {us} us", block.len()),
        );

        // easia-fs: put and tokened read of a 1 MB file.
        let mut fs = FileServer::new("probe.example", issuer.clone());
        let mut n = 0u32;
        rep.set(
            "easia-fs.put_us",
            median_us(9, || {
                n += 1;
                fs.ingest(&format!("/p/f{n}.bin"), FileContent::Bytes(block.clone()));
            }),
        );
        // Measured per op where the workload reads files; probed here
        // where it does not.
        if rep.get("easia-fs.read_us").unwrap_or(0.0) == 0.0 {
            rep.set(
                "easia-fs.read_us",
                median_us(9, || {
                    black_box(fs.read_file("/p/f1.bin", 0).map(|d| d.len()).unwrap_or(0));
                }),
            );
        }

        // easia-pack on an EDF file's bytes (what a tar.ez package of
        // results would carry).
        let field = easia_sci::TurbulenceField::generate(
            &easia_sci::FieldSpec {
                n: 16,
                modes: 16,
                seed: 7,
                length_scale: 0.3,
            },
            0.0,
        );
        let edf = easia_sci::edf::timestep_file(&field, "S1", 0).encode();
        let us = median_us(5, || {
            black_box(easia_pack::lzss::compress(&edf));
        });
        rep.derived(
            "easia-pack.compress_mb_per_s",
            mb_per_s(edf.len(), us),
            format!("{} B in {us} us", edf.len()),
        );
        let packed = easia_pack::lzss::compress(&edf);
        let us = median_us(5, || {
            black_box(easia_pack::lzss::decompress(&packed).is_ok());
        });
        rep.derived(
            "easia-pack.decompress_mb_per_s",
            mb_per_s(edf.len(), us),
            format!("{} B out in {us} us", edf.len()),
        );

        // easia-ops: assembler and VM on the upload program over 64 KiB.
        rep.set(
            "easia-ops.assemble_us",
            median_us(9, || {
                black_box(easia_ops::assemble(UPLOAD_EPC).is_ok());
            }),
        );
        if let Ok(program) = easia_ops::assemble(UPLOAD_EPC) {
            let input = vec![0x5au8; 64 * 1024];
            let mut instructions = 0u64;
            let us = median_us(5, || {
                if let Ok(out) =
                    easia_ops::Vm::new(easia_ops::Limits::default()).run(&program, &input, &[])
                {
                    instructions = out.instructions;
                }
            });
            rep.derived(
                "easia-ops.vm_minstr_per_s",
                if us == 0.0 {
                    0.0
                } else {
                    instructions as f64 / us
                },
                format!("{instructions} instr in {us} us"),
            );
        }

        // easia-obs: the exposition of this workload's own registry.
        let text = a.obs.metrics.render();
        rep.set("easia-obs.exposition_bytes", text.len() as f64);
        rep.set(
            "easia-obs.families",
            text.lines().filter(|l| l.starts_with("# TYPE")).count() as f64,
        );
        if rep.get("easia-obs.render_us").unwrap_or(0.0) == 0.0 {
            rep.set(
                "easia-obs.render_us",
                median_us(9, || {
                    black_box(a.obs.metrics.render());
                }),
            );
        }
    }

    /// DATALINK link control: a linked INSERT minus a NULL-DATALINK
    /// INSERT, per row, on a scratch archive that already holds
    /// `linked` linked files — the cost grows with that count.
    pub fn link_us(linked: usize, rep: &mut Report) {
        let mut a = Archive::builder()
            .file_server("fs1.example", easia_core::lan_link_spec())
            .build();
        if easia_core::turbulence::install_schema(&mut a).is_err() {
            return;
        }
        let _ =
            a.db.execute("INSERT INTO author VALUES ('A1', 'a', 'a@x', 'x')");
        let _ =
            a.db.execute("INSERT INTO simulation VALUES ('S1', 't', 'A1', 32, 1.0, 3, 'd')");
        let mut n = 0usize;
        let mut insert = |a: &mut Archive, link: bool| {
            n += 1;
            let url = if link {
                let path = format!("/data/S1/f{n:06}.edf");
                a.archive_file_local(
                    "fs1.example",
                    &path,
                    FileContent::Synthetic {
                        size: 1024,
                        seed: 1,
                    },
                )
                .map(Value::Str)
                .unwrap_or(Value::Null)
            } else {
                Value::Null
            };
            let t = Instant::now();
            let _ = a.db.execute_with_params(
                "INSERT INTO result_file VALUES (?, 'S1', 0, 'u', 'EDF', 1024, ?)",
                &[Value::Str(format!("f{n:06}.edf")), url],
            );
            t.elapsed().as_nanos() as f64 / 1e3
        };
        for _ in 0..linked {
            insert(&mut a, true);
        }
        const ROWS: usize = 50;
        let with: f64 = (0..ROWS).map(|_| insert(&mut a, true)).sum::<f64>() / ROWS as f64;
        let without: f64 = (0..ROWS).map(|_| insert(&mut a, false)).sum::<f64>() / ROWS as f64;
        rep.derived(
            "easia-datalink.link_us",
            with - without,
            format!(
                "linked INSERT {with} us - NULL INSERT {without} us, at {linked} linked file(s)"
            ),
        );
        rep.set("easia-fs.linked_files", linked as f64);
    }
}

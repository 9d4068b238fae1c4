//! XUIS ⇄ XML (de)serialisation, following the element shapes shown in
//! the paper's XUIS fragments.

use crate::model::*;
use easia_xml::{parse_document, write_document, Element, WriteOptions, XmlError};

/// Serialise a document to XML text (pretty-printed, with declaration).
pub fn to_xml(doc: &XuisDoc) -> String {
    write_document(&to_element(doc), &WriteOptions::default())
}

/// Build the DOM for a document.
pub fn to_element(doc: &XuisDoc) -> Element {
    let mut root = Element::new("xuis");
    for t in &doc.tables {
        root.push_element(table_to_element(t));
    }
    root
}

fn table_to_element(t: &XuisTable) -> Element {
    let mut e = Element::new("table")
        .with_attr("name", &t.name)
        .with_attr("primaryKey", t.primary_key.join(" "));
    if t.hidden {
        e.set_attr("hidden", "true");
    }
    if let Some(alias) = &t.alias {
        e.push_element(Element::new("tablealias").with_text(alias));
    }
    for c in &t.columns {
        e.push_element(column_to_element(c));
    }
    e
}

fn column_to_element(c: &XuisColumn) -> Element {
    let mut e = Element::new("column")
        .with_attr("name", &c.name)
        .with_attr("colid", &c.colid);
    if c.hidden {
        e.set_attr("hidden", "true");
    }
    if let Some(alias) = &c.alias {
        e.push_element(Element::new("columnalias").with_text(alias));
    }
    let mut ty = Element::new("type").with_child(Element::new(&c.type_name));
    if let Some(size) = c.size {
        ty.push_element(Element::new("size").with_text(size.to_string()));
    }
    e.push_element(ty);
    if !c.pk_refby.is_empty() {
        let mut pk = Element::new("pk");
        for r in &c.pk_refby {
            pk.push_element(Element::new("refby").with_attr("tablecolumn", r));
        }
        e.push_element(pk);
    }
    if let Some(fk) = &c.fk {
        let mut f = Element::new("fk").with_attr("tablecolumn", &fk.tablecolumn);
        if let Some(s) = &fk.substcolumn {
            f.set_attr("substcolumn", s);
        }
        e.push_element(f);
    }
    if !c.samples.is_empty() {
        let mut s = Element::new("samples");
        for v in &c.samples {
            s.push_element(Element::new("sample").with_text(v));
        }
        e.push_element(s);
    }
    for op in &c.operations {
        e.push_element(operation_to_element(op));
    }
    if let Some(u) = &c.upload {
        e.push_element(upload_to_element(u));
    }
    e
}

fn conditions_to_if(conds: &[Condition]) -> Element {
    let mut e = Element::new("if");
    for c in conds {
        e.push_element(
            Element::new("condition")
                .with_attr("colid", &c.colid)
                .with_child(Element::new("eq").with_text(format!("'{}'", c.eq))),
        );
    }
    e
}

fn operation_to_element(op: &Operation) -> Element {
    let mut e = Element::new("operation")
        .with_attr("name", &op.name)
        .with_attr("type", &op.op_type)
        .with_attr("filename", &op.filename)
        .with_attr("format", &op.format)
        .with_attr(
            "guest.access",
            if op.guest_access { "true" } else { "false" },
        )
        .with_attr("column", "false");
    if !op.conditions.is_empty() {
        e.push_element(conditions_to_if(&op.conditions));
    }
    let mut loc = Element::new("location");
    match &op.location {
        Location::DatabaseResult { colid, conditions } => {
            let mut dr = Element::new("database.result").with_attr("colid", colid);
            for c in conditions {
                dr.push_element(
                    Element::new("condition")
                        .with_attr("colid", &c.colid)
                        .with_child(Element::new("eq").with_text(format!("'{}'", c.eq))),
                );
            }
            loc.push_element(dr);
        }
        Location::Url(u) => {
            loc.push_element(Element::new("URL").with_text(u));
        }
    }
    e.push_element(loc);
    if let Some(d) = &op.description {
        e.push_element(Element::new("description").with_text(d));
    }
    if !op.parameters.is_empty() {
        let mut ps = Element::new("parameters");
        for p in &op.parameters {
            let mut variable = Element::new("variable")
                .with_child(Element::new("description").with_text(&p.description));
            match &p.widget {
                Widget::Select {
                    name,
                    size,
                    options,
                } => {
                    let mut sel = Element::new("select")
                        .with_attr("name", name)
                        .with_attr("size", size.to_string());
                    for (v, label) in options {
                        sel.push_element(
                            Element::new("option")
                                .with_attr("value", v)
                                .with_text(label),
                        );
                    }
                    variable.push_element(sel);
                }
                Widget::Radio { name, options } => {
                    for (v, label) in options {
                        variable.push_element(
                            Element::new("input")
                                .with_attr("type", "radio")
                                .with_attr("name", name)
                                .with_attr("value", v)
                                .with_text(label),
                        );
                    }
                }
                Widget::Text { name, default } => {
                    variable.push_element(
                        Element::new("input")
                            .with_attr("type", "text")
                            .with_attr("name", name)
                            .with_attr("value", default),
                    );
                }
            }
            ps.push_element(Element::new("param").with_child(variable));
        }
        e.push_element(ps);
    }
    e
}

fn upload_to_element(u: &UploadSpec) -> Element {
    let mut e = Element::new("upload")
        .with_attr("type", &u.upload_type)
        .with_attr("format", &u.format)
        .with_attr(
            "guest.access",
            if u.guest_access { "true" } else { "false" },
        )
        .with_attr("column", "false");
    if !u.conditions.is_empty() {
        e.push_element(conditions_to_if(&u.conditions));
    }
    e
}

/// Parse error for XUIS documents.
#[derive(Debug, Clone, PartialEq)]
pub enum XuisParseError {
    /// Underlying XML problem.
    Xml(XmlError),
    /// Structurally valid XML but not a valid XUIS.
    Shape(String),
}

impl std::fmt::Display for XuisParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XuisParseError::Xml(e) => write!(f, "{e}"),
            XuisParseError::Shape(m) => write!(f, "invalid XUIS: {m}"),
        }
    }
}

impl std::error::Error for XuisParseError {}

fn shape_err<T>(msg: impl Into<String>) -> Result<T, XuisParseError> {
    Err(XuisParseError::Shape(msg.into()))
}

/// Parse XUIS XML text into the document model.
pub fn from_xml(text: &str) -> Result<XuisDoc, XuisParseError> {
    let root = parse_document(text).map_err(XuisParseError::Xml)?;
    from_element(&root)
}

/// Parse a DOM into the document model.
pub fn from_element(root: &Element) -> Result<XuisDoc, XuisParseError> {
    if root.name != "xuis" {
        return shape_err(format!("root must be <xuis>, found <{}>", root.name));
    }
    let mut doc = XuisDoc::default();
    for t in root.children_named("table") {
        doc.tables.push(parse_table(t)?);
    }
    Ok(doc)
}

fn req_attr(e: &Element, name: &str) -> Result<String, XuisParseError> {
    e.attr(name)
        .map(str::to_string)
        .ok_or_else(|| XuisParseError::Shape(format!("<{}> missing '{name}'", e.name)))
}

fn parse_table(e: &Element) -> Result<XuisTable, XuisParseError> {
    let name = req_attr(e, "name")?;
    let primary_key = e
        .attr("primaryKey")
        .map(|s| s.split_whitespace().map(str::to_string).collect())
        .unwrap_or_default();
    let mut columns = Vec::new();
    for c in e.children_named("column") {
        columns.push(parse_column(c)?);
    }
    Ok(XuisTable {
        name,
        primary_key,
        alias: e.child_text("tablealias").filter(|s| !s.trim().is_empty()),
        hidden: e.attr("hidden") == Some("true"),
        columns,
    })
}

fn parse_column(e: &Element) -> Result<XuisColumn, XuisParseError> {
    let name = req_attr(e, "name")?;
    let colid = req_attr(e, "colid")?;
    let ty = e
        .child("type")
        .ok_or_else(|| XuisParseError::Shape(format!("column {name} missing <type>")))?;
    let type_name = ty
        .child_elements()
        .map(|c| c.name.clone())
        .find(|n| n != "size")
        .ok_or_else(|| XuisParseError::Shape(format!("column {name}: empty <type>")))?;
    let size = ty
        .child_text("size")
        .and_then(|s| s.trim().parse::<usize>().ok());
    let pk_refby = e
        .child("pk")
        .map(|pk| {
            pk.children_named("refby")
                .filter_map(|r| r.attr("tablecolumn").map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let fk = e.child("fk").map(|f| FkSpec {
        tablecolumn: f.attr("tablecolumn").unwrap_or_default().to_string(),
        substcolumn: f.attr("substcolumn").map(str::to_string),
    });
    let samples = e
        .child("samples")
        .map(|s| s.children_named("sample").map(|x| x.text()).collect())
        .unwrap_or_default();
    let mut operations = Vec::new();
    for op in e.children_named("operation") {
        operations.push(parse_operation(op)?);
    }
    let upload = e
        .children_named("upload")
        .next()
        .map(parse_upload)
        .transpose()?;
    Ok(XuisColumn {
        name,
        colid,
        type_name,
        size,
        alias: e.child_text("columnalias").filter(|s| !s.trim().is_empty()),
        hidden: e.attr("hidden") == Some("true"),
        pk_refby,
        fk,
        samples,
        operations,
        upload,
    })
}

fn parse_conditions(parent: &Element) -> Vec<Condition> {
    parent
        .children_named("condition")
        .filter_map(|c| {
            let colid = c.attr("colid")?.to_string();
            let raw = c.child_text("eq")?;
            Some(Condition {
                colid,
                eq: strip_quotes(raw.trim()),
            })
        })
        .collect()
}

fn strip_quotes(s: &str) -> String {
    let t = s.trim();
    if t.len() >= 2 && t.starts_with('\'') && t.ends_with('\'') {
        t[1..t.len() - 1].to_string()
    } else {
        t.to_string()
    }
}

fn parse_operation(e: &Element) -> Result<Operation, XuisParseError> {
    let name = req_attr(e, "name")?;
    let conditions = e.child("if").map(parse_conditions).unwrap_or_default();
    let loc_el = e
        .child("location")
        .ok_or_else(|| XuisParseError::Shape(format!("operation {name} missing <location>")))?;
    let location = if let Some(url) = loc_el.child("URL") {
        Location::Url(url.text().trim().to_string())
    } else if let Some(dr) = loc_el.child("database.result") {
        Location::DatabaseResult {
            colid: dr.attr("colid").unwrap_or_default().to_string(),
            conditions: parse_conditions(dr),
        }
    } else {
        return shape_err(format!(
            "operation {name}: <location> needs <URL> or <database.result>"
        ));
    };
    let mut parameters = Vec::new();
    if let Some(ps) = e.child("parameters") {
        for p in ps.children_named("param") {
            let Some(variable) = p.child("variable") else {
                continue;
            };
            let description = variable.child_text("description").unwrap_or_default();
            let widget = parse_widget(variable)
                .ok_or_else(|| XuisParseError::Shape(format!("operation {name}: bad <param>")))?;
            parameters.push(Param {
                description,
                widget,
            });
        }
    }
    Ok(Operation {
        name,
        op_type: e.attr("type").unwrap_or_default().to_string(),
        filename: e.attr("filename").unwrap_or_default().to_string(),
        format: e.attr("format").unwrap_or_default().to_string(),
        guest_access: e.attr("guest.access") == Some("true"),
        conditions,
        location,
        description: e.child_text("description").filter(|s| !s.trim().is_empty()),
        parameters,
    })
}

fn parse_widget(variable: &Element) -> Option<Widget> {
    if let Some(sel) = variable.child("select") {
        let options = sel
            .children_named("option")
            .map(|o| (o.attr("value").unwrap_or_default().to_string(), o.text()))
            .collect();
        return Some(Widget::Select {
            name: sel.attr("name")?.to_string(),
            size: sel.attr("size").and_then(|s| s.parse().ok()).unwrap_or(1),
            options,
        });
    }
    let inputs: Vec<&Element> = variable.children_named("input").collect();
    if inputs.is_empty() {
        return None;
    }
    if inputs[0].attr("type") == Some("radio") {
        let name = inputs[0].attr("name")?.to_string();
        let options = inputs
            .iter()
            .map(|i| (i.attr("value").unwrap_or_default().to_string(), i.text()))
            .collect();
        Some(Widget::Radio { name, options })
    } else {
        Some(Widget::Text {
            name: inputs[0].attr("name")?.to_string(),
            default: inputs[0].attr("value").unwrap_or_default().to_string(),
        })
    }
}

fn parse_upload(e: &Element) -> Result<UploadSpec, XuisParseError> {
    Ok(UploadSpec {
        upload_type: e.attr("type").unwrap_or_default().to_string(),
        format: e.attr("format").unwrap_or_default().to_string(),
        guest_access: e.attr("guest.access") == Some("true"),
        conditions: e.child("if").map(parse_conditions).unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> XuisDoc {
        XuisDoc {
            tables: vec![XuisTable {
                name: "AUTHOR".into(),
                primary_key: vec!["AUTHOR.AUTHOR_KEY".into()],
                alias: Some("Author".into()),
                hidden: false,
                columns: vec![XuisColumn {
                    name: "AUTHOR_KEY".into(),
                    colid: "AUTHOR.AUTHOR_KEY".into(),
                    type_name: "VARCHAR".into(),
                    size: Some(30),
                    alias: None,
                    hidden: false,
                    pk_refby: vec!["SIMULATION.AUTHOR_KEY".into()],
                    fk: None,
                    samples: vec!["A19990110151042".into(), "A19990209151042".into()],
                    operations: vec![],
                    upload: None,
                }],
            }],
        }
    }

    #[test]
    fn round_trip_simple() {
        let doc = sample_doc();
        let xml = to_xml(&doc);
        let back = from_xml(&xml).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn emitted_xml_matches_paper_shape() {
        let xml = to_xml(&sample_doc());
        assert!(
            xml.contains(r#"<table name="AUTHOR" primaryKey="AUTHOR.AUTHOR_KEY">"#),
            "{xml}"
        );
        assert!(xml.contains("<tablealias>Author</tablealias>"));
        assert!(xml.contains(r#"<refby tablecolumn="SIMULATION.AUTHOR_KEY"/>"#));
        assert!(xml.contains("<sample>A19990110151042</sample>"));
        assert!(xml.contains("<VARCHAR/>"));
        assert!(xml.contains("<size>30</size>"));
    }

    #[test]
    fn parses_paper_operation_fragment() {
        // Adapted from the paper's "XUIS fragment for an operation".
        let xml = r#"<xuis><table name="RESULT_FILE" primaryKey="RESULT_FILE.FILE_NAME">
          <column name="DOWNLOAD_RESULT" colid="RESULT_FILE.DOWNLOAD_RESULT">
            <type><DATALINK/></type>
            <operation name="GetImage" type="JAVA" filename="GetImage.class"
                       format="jar" guest.access="true" column="false">
              <if>
                <condition colid="RESULT_FILE.SIMULATION_KEY">
                  <eq>'S19990110150932'</eq>
                </condition>
              </if>
              <location>
                <database.result colid="CODE_FILE.DOWNLOAD_CODE_FILE">
                  <condition colid="CODE_FILE.CODE_NAME">
                    <eq>'GetImage.jar'</eq>
                  </condition>
                </database.result>
              </location>
              <parameters>
                <param><variable>
                  <description>Select the slice you wish to visualise:</description>
                  <select name="slice" size="4">
                    <option value="x0">x0=0.0</option>
                    <option value="x1">x1=0.1015625</option>
                  </select>
                </variable></param>
                <param><variable>
                  <description>Select velocity component or pressure:</description>
                  <input type="radio" name="type" value="u">u speed</input>
                  <input type="radio" name="type" value="p">pressure</input>
                </variable></param>
              </parameters>
            </operation>
          </column>
        </table></xuis>"#;
        let doc = from_xml(xml).unwrap();
        let ops = doc.operations();
        assert_eq!(ops.len(), 1);
        let op = ops[0].2;
        assert_eq!(op.name, "GetImage");
        assert!(op.guest_access);
        assert_eq!(op.conditions[0].eq, "S19990110150932");
        match &op.location {
            Location::DatabaseResult { colid, conditions } => {
                assert_eq!(colid, "CODE_FILE.DOWNLOAD_CODE_FILE");
                assert_eq!(conditions[0].eq, "GetImage.jar");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(op.parameters.len(), 2);
        match &op.parameters[0].widget {
            Widget::Select {
                name,
                size,
                options,
            } => {
                assert_eq!(name, "slice");
                assert_eq!(*size, 4);
                assert_eq!(options[1].0, "x1");
                assert_eq!(options[1].1, "x1=0.1015625");
            }
            other => panic!("{other:?}"),
        }
        match &op.parameters[1].widget {
            Widget::Radio { name, options } => {
                assert_eq!(name, "type");
                assert_eq!(options.len(), 2);
                assert_eq!(options[1], ("p".to_string(), "pressure".to_string()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_paper_url_operation() {
        let xml = r#"<xuis><table name="RESULT_FILE" primaryKey="">
          <column name="D" colid="RESULT_FILE.D"><type><DATALINK/></type>
            <operation name="SDB" type="" filename="" format="" guest.access="true" column="false">
              <if><condition colid="RESULT_FILE.FILE_FORMAT"><eq>'HDF'</eq></condition></if>
              <location><URL>http://quagga.ecs.soton.ac.uk:8080/servlet/SDBservlet</URL></location>
              <description>NCSA Scientific Data Browser</description>
            </operation>
          </column></table></xuis>"#;
        let doc = from_xml(xml).unwrap();
        let op = doc.operations()[0].2;
        assert_eq!(
            op.location,
            Location::Url("http://quagga.ecs.soton.ac.uk:8080/servlet/SDBservlet".into())
        );
        assert_eq!(
            op.description.as_deref(),
            Some("NCSA Scientific Data Browser")
        );
    }

    #[test]
    fn parses_paper_upload_fragment() {
        let xml = r#"<xuis><table name="RESULT_FILE" primaryKey="RESULT_FILE.FILE_NAME RESULT_FILE.SIMULATION_KEY">
          <column name="DOWNLOAD_RESULT" colid="RESULT_FILE.DOWNLOAD_RESULT">
            <type><DATALINK/></type>
            <upload type="JAVA" format="jar" guest.access="false" column="false">
              <if>
                <condition colid="RESULT_FILE.SIMULATION_KEY"><eq>'S19990110150932'</eq></condition>
                <condition colid="RESULT_FILE.MEASUREMENT"><eq>'u,v,w,p'</eq></condition>
              </if>
            </upload>
          </column></table></xuis>"#;
        let doc = from_xml(xml).unwrap();
        let t = doc.table("RESULT_FILE").unwrap();
        assert_eq!(t.primary_key.len(), 2, "composite key split on whitespace");
        let up = t.column("DOWNLOAD_RESULT").unwrap().upload.clone().unwrap();
        assert!(!up.guest_access);
        assert_eq!(up.conditions.len(), 2);
        assert_eq!(up.conditions[1].eq, "u,v,w,p");
    }

    #[test]
    fn full_round_trip_with_everything() {
        let mut doc = sample_doc();
        doc.tables[0].columns[0].operations.push(Operation {
            name: "Stats".into(),
            op_type: "NATIVE".into(),
            filename: "stats".into(),
            format: "raw".into(),
            guest_access: false,
            conditions: vec![Condition {
                colid: "T.C".into(),
                eq: "v".into(),
            }],
            location: Location::Url("http://svc/stats".into()),
            description: Some("field statistics".into()),
            parameters: vec![
                Param {
                    description: "component".into(),
                    widget: Widget::Radio {
                        name: "comp".into(),
                        options: vec![("u".into(), "u speed".into())],
                    },
                },
                Param {
                    description: "threshold".into(),
                    widget: Widget::Text {
                        name: "thr".into(),
                        default: "0.5".into(),
                    },
                },
            ],
        });
        doc.tables[0].columns[0].upload = Some(UploadSpec {
            upload_type: "EPC".into(),
            format: "tar.ez".into(),
            guest_access: false,
            conditions: vec![],
        });
        doc.tables[0].columns[0].fk = Some(FkSpec {
            tablecolumn: "X.Y".into(),
            substcolumn: Some("X.NAME".into()),
        });
        doc.tables[0].hidden = true;
        doc.tables[0].columns[0].hidden = true;
        let xml = to_xml(&doc);
        let back = from_xml(&xml).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn shape_errors() {
        assert!(from_xml("<notxuis/>").is_err());
        assert!(
            from_xml("<xuis><table/></xuis>").is_err(),
            "table needs name"
        );
        let bad_col =
            r#"<xuis><table name="T" primaryKey=""><column name="C" colid="T.C"/></table></xuis>"#;
        assert!(from_xml(bad_col).is_err(), "column needs type");
    }

    /// A XUIS nested deeper than the XML parser's budget is its typed
    /// error, at the budget the DTD check and the reader walk it on half
    /// a default thread stack: 100,000 nested elements aborted the
    /// process before the budget.
    #[test]
    fn deep_documents_are_typed_errors() {
        let nested = |d: usize| format!("<xuis>{}{}</xuis>", "<t>".repeat(d), "</t>".repeat(d));
        match from_xml(&nested(100_000)) {
            Err(XuisParseError::Xml(e)) => {
                assert!(e.msg.starts_with("elements nested deeper than"), "{e}")
            }
            other => panic!("{other:?}"),
        }
        let run = move || {
            let text = nested(254);
            let root = easia_xml::parse_document(&text).unwrap();
            assert!(!crate::dtd::validate(&root).is_empty());
            assert!(!matches!(from_xml(&text), Err(XuisParseError::Xml(_))));
            assert!(matches!(
                from_xml(&nested(256)),
                Err(XuisParseError::Xml(_))
            ));
        };
        let thread = std::thread::Builder::new().stack_size(1 << 20);
        thread.spawn(run).unwrap().join().unwrap();
    }
}

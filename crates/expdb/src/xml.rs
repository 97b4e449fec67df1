//! The XML-like text format: the paper's `experiment.xml`, the one
//! interchange file `hpcprof` hands to `hpcviewer`. It is kept as that
//! paper-faithful, human-readable interchange — parsed whole and
//! attributed eagerly — while the tools' working format is the binary
//! CPDB container ([`crate::bin2`]). Hand-rolled writer and parser for
//! exactly the subset we emit: nested elements, attributes, escaped
//! text.

use crate::model::{DbError, DbMetric, DbModel, DbNode};
use callpath_core::prelude::{FileId, LoadModuleId, ProcId, ScopeKind, SourceLoc};
use std::collections::HashMap;
use std::fmt::Write as _;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, DbError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &s[i..];
        let end = rest
            .find(';')
            .ok_or_else(|| DbError::new("unterminated entity"))?;
        match &rest[..=end] {
            "&amp;" => out.push('&'),
            "&lt;" => out.push('<'),
            "&gt;" => out.push('>'),
            "&quot;" => out.push('"'),
            "&apos;" => out.push('\''),
            other => return Err(DbError::new(format!("unknown entity {other}"))),
        }
        // Skip the consumed entity body.
        for _ in 0..end {
            chars.next();
        }
    }
    Ok(out)
}

/// Serialize a model as XML-like text.
pub fn write(model: &DbModel) -> String {
    let mut out = String::new();
    out.push_str("<Experiment version=\"1\">\n");

    let name_list = |out: &mut String, tag: &str, items: &[String]| {
        let _ = writeln!(out, "  <{tag}>");
        for (i, s) in items.iter().enumerate() {
            let _ = writeln!(out, "    <n i=\"{i}\">{}</n>", escape(s));
        }
        let _ = writeln!(out, "  </{tag}>");
    };
    name_list(&mut out, "Procs", &model.procs);
    name_list(&mut out, "Files", &model.files);
    name_list(&mut out, "Modules", &model.modules);

    let _ = writeln!(out, "  <CCT>");
    for (i, n) in model.nodes.iter().enumerate() {
        let (id, p) = (i + 1, n.parent);
        let _ = match n.scope {
            ScopeKind::Frame {
                proc,
                module,
                def,
                call_site,
            } => {
                let cs = match call_site {
                    Some(c) => format!(" csf=\"{}\" csl=\"{}\"", c.file.0, c.line),
                    None => String::new(),
                };
                writeln!(
                    out,
                    "    <F id=\"{id}\" p=\"{p}\" n=\"{}\" lm=\"{}\" f=\"{}\" l=\"{}\"{cs}/>",
                    proc.0, module.0, def.file.0, def.line
                )
            }
            ScopeKind::InlinedFrame {
                proc,
                def,
                call_site,
            } => writeln!(
                out,
                "    <I id=\"{id}\" p=\"{p}\" n=\"{}\" f=\"{}\" l=\"{}\" csf=\"{}\" csl=\"{}\"/>",
                proc.0, def.file.0, def.line, call_site.file.0, call_site.line
            ),
            ScopeKind::Loop { header: at } | ScopeKind::Stmt { loc: at } => {
                let tag = if n.scope.is_loop() { "L" } else { "S" };
                writeln!(
                    out,
                    "    <{tag} id=\"{id}\" p=\"{p}\" f=\"{}\" l=\"{}\"/>",
                    at.file.0, at.line
                )
            }
            // No element describes a root off node 0; the reader refuses
            // this one, as the binary reader refuses a root tag.
            ScopeKind::Root => writeln!(out, "    <Root id=\"{id}\" p=\"{p}\"/>"),
        };
    }
    let _ = writeln!(out, "  </CCT>");

    let _ = writeln!(out, "  <Metrics>");
    for (mi, m) in model.metrics.iter().enumerate() {
        let _ = writeln!(
            out,
            "    <Metric i=\"{mi}\" name=\"{}\" unit=\"{}\" period=\"{}\">",
            escape(&m.name),
            escape(&m.unit),
            m.period
        );
        for &(node, v) in &m.costs {
            let _ = writeln!(out, "      <C n=\"{node}\" v=\"{v}\"/>");
        }
        let _ = writeln!(out, "    </Metric>");
    }
    let _ = writeln!(out, "  </Metrics>");

    let _ = writeln!(out, "  <DerivedMetrics>");
    for (name, formula) in &model.derived {
        let _ = writeln!(
            out,
            "    <D name=\"{}\">{}</D>",
            escape(name),
            escape(formula)
        );
    }
    let _ = writeln!(out, "  </DerivedMetrics>");
    let _ = writeln!(out, "</Experiment>");
    out
}

/// A parsed tag: name, attributes, kind.
#[derive(Debug, PartialEq)]
enum Tag {
    Open(String, HashMap<String, String>),
    Close(String),
    Empty(String, HashMap<String, String>),
    Text(String),
}

/// Minimal tokenizer for our XML subset.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn next_tag(&mut self) -> Result<Option<Tag>, DbError> {
        // Skip whitespace; gather any non-whitespace text before '<'.
        while self.pos < self.src.len() {
            let rest = &self.src[self.pos..];
            if let Some(stripped) = rest.strip_prefix('<') {
                let end = stripped
                    .find('>')
                    .ok_or_else(|| DbError::new("unterminated tag"))?;
                let body = &stripped[..end];
                self.pos += end + 2;
                if let Some(name) = body.strip_prefix('/') {
                    return Ok(Some(Tag::Close(name.trim().to_owned())));
                }
                let empty = body.ends_with('/');
                let body = body.trim_end_matches('/');
                let (name, attrs) = parse_attrs(body)?;
                return Ok(Some(if empty {
                    Tag::Empty(name, attrs)
                } else {
                    Tag::Open(name, attrs)
                }));
            }
            let text_end = rest.find('<').unwrap_or(rest.len());
            let text = rest[..text_end].trim();
            self.pos += text_end;
            if !text.is_empty() {
                return Ok(Some(Tag::Text(unescape(text)?)));
            }
            if text_end == rest.len() {
                break;
            }
        }
        Ok(None)
    }
}

fn parse_attrs(body: &str) -> Result<(String, HashMap<String, String>), DbError> {
    let body = body.trim();
    let name_end = body.find(char::is_whitespace).unwrap_or(body.len());
    let name = body[..name_end].to_owned();
    let mut attrs = HashMap::new();
    let mut rest = body[name_end..].trim_start();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| DbError::new(format!("malformed attribute in <{name}>")))?;
        let key = rest[..eq].trim().to_owned();
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return Err(DbError::new("attribute value must be quoted"));
        }
        let close = after[1..]
            .find('"')
            .ok_or_else(|| DbError::new("unterminated attribute value"))?;
        attrs.insert(key, unescape(&after[1..=close])?);
        rest = after[close + 2..].trim_start();
    }
    Ok((name, attrs))
}

fn req<'m>(attrs: &'m HashMap<String, String>, key: &str, tag: &str) -> Result<&'m str, DbError> {
    attrs
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| DbError::new(format!("<{tag}> missing attribute {key}")))
}

fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, DbError> {
    s.parse()
        .map_err(|_| DbError::new(format!("bad number '{s}' in {what}")))
}

/// Parse the XML-like text format.
pub fn read(text: &str) -> Result<DbModel, DbError> {
    let mut lx = Lexer { src: text, pos: 0 };
    let mut model = DbModel::default();

    // <Experiment ...>: older writers added a `sparse` attribute (a hint
    // for the reader's memory layout); like any attribute, it is ignored.
    match lx.next_tag()? {
        Some(Tag::Open(name, _)) if name == "Experiment" => {}
        _ => return Err(DbError::new("expected <Experiment>")),
    }

    #[derive(PartialEq)]
    enum Section {
        None,
        Procs,
        Files,
        Modules,
        Cct,
        Metrics,
        Derived,
    }
    let mut section = Section::None;
    let mut pending_name_idx: Option<usize> = None;
    let mut pending_derived: Option<String> = None;

    while let Some(tag) = lx.next_tag()? {
        match tag {
            Tag::Open(name, attrs) => match name.as_str() {
                "Procs" => section = Section::Procs,
                "Files" => section = Section::Files,
                "Modules" => section = Section::Modules,
                "CCT" => section = Section::Cct,
                "Metrics" => section = Section::Metrics,
                "DerivedMetrics" => section = Section::Derived,
                "n" => {
                    pending_name_idx = Some(num(req(&attrs, "i", "n")?, "name index")?);
                }
                "Metric" => {
                    model.metrics.push(DbMetric {
                        name: req(&attrs, "name", "Metric")?.to_owned(),
                        unit: req(&attrs, "unit", "Metric")?.to_owned(),
                        period: num(req(&attrs, "period", "Metric")?, "period")?,
                        costs: Vec::new(),
                    });
                }
                "D" => {
                    pending_derived = Some(req(&attrs, "name", "D")?.to_owned());
                }
                other => return Err(DbError::new(format!("unexpected <{other}>"))),
            },
            Tag::Empty(name, attrs) => match name.as_str() {
                "F" | "I" | "L" | "S" => {
                    let parent = num(req(&attrs, "p", &name)?, "parent")?;
                    let loc = |file: &str, line: &str| -> Result<SourceLoc, DbError> {
                        let file = num(req(&attrs, file, &name)?, file)?;
                        Ok(SourceLoc::new(
                            FileId(file),
                            num(req(&attrs, line, &name)?, line)?,
                        ))
                    };
                    let scope = match name.as_str() {
                        "F" => ScopeKind::Frame {
                            proc: ProcId(num(req(&attrs, "n", "F")?, "proc")?),
                            module: LoadModuleId(num(req(&attrs, "lm", "F")?, "module")?),
                            def: loc("f", "l")?,
                            call_site: match (attrs.get("csf"), attrs.get("csl")) {
                                (Some(_), Some(_)) => Some(loc("csf", "csl")?),
                                _ => None,
                            },
                        },
                        "I" => ScopeKind::InlinedFrame {
                            proc: ProcId(num(req(&attrs, "n", "I")?, "proc")?),
                            def: loc("f", "l")?,
                            call_site: loc("csf", "csl")?,
                        },
                        "L" => ScopeKind::Loop {
                            header: loc("f", "l")?,
                        },
                        _ => ScopeKind::Stmt {
                            loc: loc("f", "l")?,
                        },
                    };
                    let id: usize = num(req(&attrs, "id", &name)?, "id")?;
                    if id != model.nodes.len() + 1 {
                        return Err(DbError::new(format!(
                            "node ids must be dense and ordered; got {id}, expected {}",
                            model.nodes.len() + 1
                        )));
                    }
                    model.nodes.push(DbNode { parent, scope });
                }
                "C" => {
                    let m = model
                        .metrics
                        .last_mut()
                        .ok_or_else(|| DbError::new("<C> outside <Metric>"))?;
                    m.costs.push((
                        num(req(&attrs, "n", "C")?, "node")?,
                        num(req(&attrs, "v", "C")?, "value")?,
                    ));
                }
                other => return Err(DbError::new(format!("unexpected <{other}/>"))),
            },
            Tag::Text(text) => {
                if let Some(idx) = pending_name_idx.take() {
                    let list = match section {
                        Section::Procs => &mut model.procs,
                        Section::Files => &mut model.files,
                        Section::Modules => &mut model.modules,
                        _ => return Err(DbError::new("name text outside a name section")),
                    };
                    if idx != list.len() {
                        return Err(DbError::new("name indices must be dense and ordered"));
                    }
                    list.push(text);
                } else if let Some(name) = pending_derived.take() {
                    model.derived.push((name, text));
                } else {
                    return Err(DbError::new(format!("unexpected text '{text}'")));
                }
            }
            Tag::Close(_) => {
                // Empty <n></n> would be an empty string name; we never emit
                // empty names, so a dangling pending index is an error.
                if pending_name_idx.take().is_some() {
                    return Err(DbError::new("empty name element"));
                }
                pending_derived = None;
            }
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::sample_experiment;
    use crate::DbModel;

    #[test]
    fn roundtrip() {
        let exp = sample_experiment();
        let model = DbModel::from_experiment(&exp);
        let text = write(&model);
        let parsed = read(&text).unwrap();
        assert_eq!(parsed, model);
        // Yesterday's files say `sparse=` in the root tag: read, ignored.
        assert!(!text.contains("sparse"));
        let old = text.replacen("version=\"1\"", "version=\"1\" sparse=\"true\"", 1);
        assert_eq!(read(&old).unwrap(), model);
    }

    #[test]
    fn escaping_roundtrips() {
        let mut exp = sample_experiment();
        // A name with every escapable character.
        let weird = r#"operator<< & "friends" <T>'s"#;
        exp.cct.names.proc(weird);
        let model = DbModel::from_experiment(&exp);
        let text = write(&model);
        let parsed = read(&text).unwrap();
        assert!(parsed.procs.contains(&weird.to_owned()));
    }

    #[test]
    fn full_experiment_roundtrip() {
        let exp = sample_experiment();
        let text = crate::to_xml(&exp);
        let rebuilt = crate::from_xml(&text).unwrap();
        assert_eq!(rebuilt.cct.len(), exp.cct.len());
        assert_eq!(
            crate::to_xml(&rebuilt),
            text,
            "serialize∘parse must be a fixed point"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(read("").is_err());
        assert!(read("<Wrong/>").is_err());
        assert!(read("<Experiment version=\"1\"><CCT><F id=\"2\" p=\"0\"/></CCT>").is_err());
    }

    #[test]
    fn rejects_non_dense_node_ids() {
        let text = r#"<Experiment version="1" sparse="false">
  <CCT>
    <S id="5" p="0" f="0" l="1"/>
  </CCT>
</Experiment>"#;
        let err = read(text).unwrap_err();
        assert!(err.message.contains("dense"), "{err}");
    }

    #[test]
    fn unescape_rejects_unknown_entities() {
        assert!(unescape("&bogus;").is_err());
        assert!(unescape("&amp").is_err());
        assert_eq!(unescape("a&amp;b").unwrap(), "a&b");
    }
}

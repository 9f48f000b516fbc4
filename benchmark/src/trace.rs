//! In-memory spans around the calls into each layer. The traced run
//! replays one request stage by stage; every stage is a span whose parent
//! is the request's root span, and spans of one request share its id. The
//! spans are written to `benchmark/out/trace-<workload>.json` when the run
//! ends.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Index of the open request's root span.
    open: Option<usize>,
    next_request: u64,
}

impl Tracer {
    pub fn new(first_request: u64) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
            next_request: first_request,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens the root span of a new request.
    ///
    /// # Panics
    ///
    /// Panics if a request is already open: requests do not nest.
    pub fn begin(&mut self, name: &str) {
        assert!(
            self.open.is_none(),
            "request `{name}` opened inside another"
        );
        let start_us = self.now_us();
        self.open = Some(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: None,
            request: self.next_request,
        });
        self.next_request += 1;
    }

    /// Runs one stage of the open request inside a span.
    ///
    /// # Panics
    ///
    /// Panics if no request is open.
    pub fn stage<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let root = self.open.expect("a stage needs an open request");
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        let request = self.spans[root].request;
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent: Some(root),
            request,
        });
        out
    }

    /// Closes the open request and returns its root span's index.
    ///
    /// # Panics
    ///
    /// Panics if no request is open.
    pub fn end(&mut self) -> usize {
        let root = self.open.take().expect("no request to close");
        self.spans[root].end_us = self.now_us();
        root
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the stage spans of a request (each stage is a leaf, so its
    /// duration is its self time).
    pub fn stages_ms(&self, root: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::duration_ms)
            .sum()
    }
}

/// Checks that every child lies inside its parent, shares its request id,
/// and that siblings do not overlap.
///
/// # Errors
///
/// The first violation, rendered.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_us < s.start_us {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .ok_or_else(|| format!("span {i} `{}` has no parent {p}", s.name))?;
        if parent.request != s.request {
            return Err(format!(
                "span {i} `{}` is in another request than its parent",
                s.name
            ));
        }
        if s.start_us < parent.start_us || s.end_us > parent.end_us {
            return Err(format!(
                "span {i} `{}` leaves its parent `{}`",
                s.name, parent.name
            ));
        }
    }
    let mut last_end: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            let end = last_end.entry(p).or_insert(f64::NEG_INFINITY);
            if s.start_us < *end {
                return Err(format!(
                    "span {i} `{}` overlaps its previous sibling",
                    s.name
                ));
            }
            *end = s.end_us;
        }
    }
    Ok(())
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect(),
    )
}

/// # Errors
///
/// A rendered description of the first malformed span.
pub fn spans_from_json(v: &Json) -> Result<Vec<Span>, String> {
    v.as_arr()
        .ok_or("spans are not an array")?
        .iter()
        .map(|s| {
            let num = |k: &str| {
                s.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("span lacks `{k}`"))
            };
            Ok(Span {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span lacks `name`")?
                    .to_string(),
                start_us: num("start_us")?,
                end_us: num("end_us")?,
                parent: s.get("parent").and_then(Json::as_f64).map(|p| p as usize),
                request: num("request")? as u64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_nest_share_a_request_and_leave_self_time() {
        let mut t = Tracer::new(7);
        t.begin("request.x");
        t.stage("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.stage("b", || ());
        let root = t.end();
        t.begin("request.y");
        let other = t.end();
        assert_eq!(t.spans()[root].request, 7);
        assert_eq!(t.spans()[other].request, 8);
        assert!(t
            .spans()
            .iter()
            .filter(|s| s.parent == Some(root))
            .all(|s| s.request == 7));
        check_nesting(t.spans()).unwrap();
        assert!(t.stages_ms(root) >= 2.0);
        assert!(t.stages_ms(root) <= t.spans()[root].duration_ms());
        let back =
            spans_from_json(&Json::parse(&spans_to_json(t.spans()).render()).unwrap()).unwrap();
        assert_eq!(back.len(), t.spans().len());
        let mut broken = t.spans().to_vec();
        broken[1].request = 99;
        assert!(check_nesting(&broken).is_err());
    }
}

//! The JSONL request/response wire protocol shared by every serving
//! front end.
//!
//! A flat-JSON request schema (one object per line in) and a
//! deterministic result schema (one object per line out). `pslocal
//! batch` speaks it over stdin and stdout, `pslocal serve` over
//! persistent TCP connections, and the equivalence suites diff the two
//! byte-for-byte — so the codec lives here, once, and the line rules
//! live in one loop, [`serve_lines`](crate::server::serve_lines), that
//! both front ends run.
//!
//! The vendored `serde` stub has no deserializer, so the parser is
//! hand-rolled. The request schema is deliberately **flat**: scalar
//! values only, no nested objects or arrays, which keeps the parser
//! ~80 lines and the failure modes enumerable.
//!
//! # Request schema
//!
//! One JSON object per line. Fields (all optional except `id`):
//!
//! | field         | type   | meaning                                          |
//! |---------------|--------|--------------------------------------------------|
//! | `id`          | string | caller-chosen identifier echoed on the response  |
//! | `n`, `m`, `k` | number | planted-instance shape (default 128, n/2, 4)     |
//! | `seed`        | number | instance + oracle RNG seed (default `0xC0FFEE`)  |
//! | `epsilon`     | number | planted-instance uniformity slack (default 0.5)  |
//! | `oracle`      | string | comma-separated fallback chain (default `greedy`)|
//! | `kernel`      | string | `auto` (default) \| `csr` \| `bitset`, see below |
//! | `deadline_ms` | number | per-request deadline from submission             |
//! | `faults`      | string | per-call fault script for the primary oracle     |
//!
//! `auto` takes bit rows only on a dense graph and only when the
//! primary oracle reads them (greedy and decomposition); otherwise it
//! builds CSR. The route never changes a response.
//!
//! # Line rules
//!
//! One rule set for both front ends. Lines are trimmed, and blank
//! lines and lines starting with `#` are skipped. A line that does not
//! parse is answered `{"outcome":"bad_request","error":..}` and the
//! stream carries on. So is a shape the generator cannot realize (see
//! [`PlantedCfParams::check`]), a line with a key outside this table or
//! with the same key twice, a line that is not valid UTF-8, a line
//! longer than [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES), and a
//! line whose instance generation panics. `batch` waits for queue room
//! rather than reject its own input; after answering every line it
//! exits 1 if a line was bad, naming the first as `stdin line N: …`.
//!
//! # Response schema
//!
//! One JSON object per request, in completion order. Only
//! deterministic fields appear — timing goes to telemetry — so result
//! streams are byte-comparable across worker counts and front ends:
//!
//! ```text
//! {"id":..,"outcome":"ok","phases":P,"set_size":S,"colors":C}
//! {"id":..,"outcome":"deadline_exceeded","phase":P}
//! {"id":..,"outcome":"rejected"}
//! {"id":..,"outcome":"failed","error":..}
//! ```
//!
//! `rejected` is `serve`'s load shedding when the admission queue is
//! full; `batch` never sheds. The server adds one typed line of its
//! own: `{"outcome":"overloaded",...}` when the connection cap refuses
//! a socket. A bad line gets `{"outcome":"bad_request",...}` from
//! either front end.

use crate::reduction::ReductionConfig;
use crate::resilient::ResilientConfig;
use crate::service::{BoxedOracle, RequestOutcome, ServiceRequest, ServiceResponse};
use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal_graph::KernelStrategy;
use pslocal_maxis::{
    CliqueRemovalOracle, DecompositionOracle, ExactOracle, FaultKind, FaultPlan, FaultyOracle,
    GreedyOracle, LubyOracle,
};
use rand::SeedableRng;
use std::time::Duration;

/// One field value of a flat request object: a string, or a raw
/// unquoted token (number / bool) parsed per field.
enum JsonValue {
    Str(String),
    Raw(String),
}

/// Skips JSON whitespace.
fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

/// Parses a JSON string literal (the opening `"` still pending).
fn parse_json_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected a JSON string".to_string());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                other => return Err(format!("unsupported string escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated JSON string".to_string()),
        }
    }
}

/// The request schema's keys, in the module docs' table order.
const REQUEST_KEYS: [&str; 10] =
    ["id", "n", "m", "k", "seed", "epsilon", "oracle", "kernel", "deadline_ms", "faults"];

/// Parses one *flat* JSON object (scalar values only — nested objects
/// and arrays are rejected) whose keys are distinct [`REQUEST_KEYS`].
fn parse_flat_json(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = line.chars().peekable();
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected a JSON object ('{' ... '}')".to_string());
    }
    let mut fields = Vec::new();
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_json_string(&mut chars)?;
            // Schema first: it caps `fields` at 10, so the duplicate
            // scan costs a constant per key.
            if !REQUEST_KEYS.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field {key:?} (expected one of {})",
                    REQUEST_KEYS.join(", ")
                ));
            }
            if fields.iter().any(|(seen, _)| *seen == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            skip_ws(&mut chars);
            if chars.next() != Some(':') {
                return Err(format!("expected ':' after key {key:?}"));
            }
            skip_ws(&mut chars);
            let value = match chars.peek() {
                Some('"') => JsonValue::Str(parse_json_string(&mut chars)?),
                Some(c) if *c == '-' || *c == '+' || c.is_ascii_alphanumeric() => {
                    let mut token = String::new();
                    while let Some(&c) = chars.peek() {
                        if c == ',' || c == '}' || c.is_whitespace() {
                            break;
                        }
                        token.push(c);
                        chars.next();
                    }
                    JsonValue::Raw(token)
                }
                other => {
                    return Err(format!(
                        "unsupported value {other:?} for key {key:?} (flat schema: scalars only)"
                    ))
                }
            };
            fields.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some(trailing) = chars.next() {
        return Err(format!("trailing input {trailing:?} after the JSON object"));
    }
    Ok(fields)
}

/// Typed accessors over one parsed request object.
struct RequestFields(Vec<(String, JsonValue)>);

impl RequestFields {
    fn find(&self, key: &str) -> Option<&JsonValue> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.find(key) {
            None => Ok(None),
            Some(JsonValue::Str(s)) => Ok(Some(s)),
            Some(JsonValue::Raw(_)) => Err(format!("field {key:?} must be a JSON string")),
        }
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.find(key) {
            None => Ok(None),
            Some(JsonValue::Raw(raw)) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("cannot parse field {key:?} value {raw:?}")),
            Some(JsonValue::Str(_)) => Err(format!("field {key:?} must be a JSON number")),
        }
    }
}

/// Escapes a string for embedding in a JSON result line.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses a `faults` script: comma-separated per-call fault tokens for
/// the request's primary oracle (`-` = behave).
pub fn parse_fault_script(spec: &str) -> Result<Vec<Option<FaultKind>>, String> {
    spec.split(',')
        .map(|token| match token.trim() {
            "" | "-" | "ok" => Ok(None),
            "panic" => Ok(Some(FaultKind::Panic)),
            "invalid-set" => Ok(Some(FaultKind::InvalidSet)),
            "empty-set" => Ok(Some(FaultKind::EmptySet)),
            "under-deliver" => Ok(Some(FaultKind::UnderDeliver)),
            t => match t.strip_prefix("stall:") {
                Some(steps) => steps
                    .parse::<usize>()
                    .map(|s| Some(FaultKind::Stall(s)))
                    .map_err(|_| format!("cannot parse stall step count in {t:?}")),
                None => Err(format!(
                    "unknown fault {t:?} (- | panic | invalid-set | empty-set | \
                     under-deliver | stall:N)"
                )),
            },
        })
        .collect()
}

/// Constructs the named oracle, boxed for a service thread boundary
/// (`Send + Sync`). Names: `exact`, `greedy`, `luby`, `clique-removal`,
/// `decomposition`.
pub fn boxed_oracle_by_name(name: &str, seed: u64) -> Result<BoxedOracle, String> {
    Ok(match name {
        "exact" => Box::new(ExactOracle),
        "greedy" => Box::new(GreedyOracle),
        "luby" => Box::new(LubyOracle::new(seed)),
        "clique-removal" => Box::new(CliqueRemovalOracle),
        "decomposition" => Box::new(DecompositionOracle::default()),
        other => return Err(format!("unknown oracle {other:?} (see --help)")),
    })
}

/// Parses a kernel name (`auto` | `csr` | `bitset`) into a
/// [`KernelStrategy`].
pub fn kernel_by_name(name: &str) -> Result<KernelStrategy, String> {
    Ok(match name {
        "auto" => KernelStrategy::Auto,
        "csr" => KernelStrategy::Csr,
        "bitset" => KernelStrategy::Bitset,
        other => return Err(format!("unknown kernel {other:?} (auto | csr | bitset)")),
    })
}

/// Builds one [`ServiceRequest`] from a request line (see the
/// [module docs](self) for the schema). `default_deadline` applies
/// when the line carries no `deadline_ms` of its own.
///
/// # Errors
///
/// A human-readable description of the first malformed field, or of
/// a planted shape the generator cannot realize
/// ([`PlantedCfParams::check`]). [`serve_lines`](crate::server::serve_lines)
/// answers it with a `bad_request` line on both front ends.
///
/// # Panics
///
/// Generation runs here, so a shape that passes the check but cannot
/// be allocated (`n` near `u64::MAX`) panics; `serve_lines` catches
/// that and answers `bad_request` too.
pub fn parse_request(
    line: &str,
    default_deadline: Option<Duration>,
) -> Result<ServiceRequest, String> {
    let fields = RequestFields(parse_flat_json(line)?);
    let id = fields.str("id")?.ok_or("missing required field \"id\"")?.to_string();
    let n: usize = fields.num("n")?.unwrap_or(128);
    let m: usize = fields.num("m")?.unwrap_or(n / 2);
    let k: usize = fields.num("k")?.unwrap_or(4);
    let seed: u64 = fields.num("seed")?.unwrap_or(0xC0FFEE);
    let epsilon: f64 = fields.num("epsilon")?.unwrap_or(0.5);
    let params = PlantedCfParams { n, m, k, epsilon };
    params.check()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let inst = planted_cf_instance(&mut rng, params);

    let mut chain: Vec<BoxedOracle> = fields
        .str("oracle")?
        .unwrap_or("greedy")
        .split(',')
        .map(|name| boxed_oracle_by_name(name.trim(), seed))
        .collect::<Result<_, _>>()?;
    if let Some(spec) = fields.str("faults")? {
        let script = parse_fault_script(spec)?;
        let primary = chain.remove(0);
        chain.insert(0, Box::new(FaultyOracle::new(primary, FaultPlan::scripted(script))));
    }

    let mut base = ReductionConfig::new(k);
    base.kernel = kernel_by_name(fields.str("kernel")?.unwrap_or("auto"))?;
    let config = ResilientConfig { base, ..ResilientConfig::new(k) };

    let mut request = ServiceRequest::new(id, inst.hypergraph, chain, config);
    if let Some(ms) =
        fields.num::<u64>("deadline_ms")?.or(default_deadline.map(|d| d.as_millis() as u64))
    {
        request = request.with_deadline(Duration::from_millis(ms));
    }
    Ok(request)
}

/// Wire value of `outcome` for a completed request.
pub const OUTCOME_OK: &str = "ok";
/// Wire value of `outcome` for a request the admission queue refused.
pub const OUTCOME_REJECTED: &str = "rejected";
/// Wire value of `outcome` for a request that ran out of deadline.
pub const OUTCOME_DEADLINE_EXCEEDED: &str = "deadline_exceeded";
/// Wire value of `outcome` for a request whose reduction errored.
pub const OUTCOME_FAILED: &str = "failed";
/// Wire value of `outcome` when the connection cap sheds a socket.
pub const OUTCOME_OVERLOADED: &str = "overloaded";
/// Wire value of `outcome` for an unparseable request line.
pub const OUTCOME_BAD_REQUEST: &str = "bad_request";

/// Renders one completed request as its JSONL result line. Only
/// deterministic fields appear here — timing goes to telemetry — so
/// result streams are byte-comparable across worker counts and front
/// ends.
pub fn response_line(response: &ServiceResponse) -> String {
    let id = json_escape(&response.id);
    match &response.outcome {
        RequestOutcome::Ok { phases, set_size, colors } => format!(
            "{{\"id\":\"{id}\",\"outcome\":\"ok\",\"phases\":{phases},\
             \"set_size\":{set_size},\"colors\":{colors}}}"
        ),
        RequestOutcome::DeadlineExceeded { phase } => {
            format!("{{\"id\":\"{id}\",\"outcome\":\"deadline_exceeded\",\"phase\":{phase}}}")
        }
        RequestOutcome::Failed { error } => format!(
            "{{\"id\":\"{id}\",\"outcome\":\"failed\",\"error\":\"{}\"}}",
            json_escape(error)
        ),
    }
}

/// The typed load-shedding line for a request the admission queue
/// refused — the protocol's `503`: the request was **not** run and
/// will not produce any other line.
pub fn rejected_line(id: &str) -> String {
    format!("{{\"id\":\"{}\",\"outcome\":\"rejected\"}}", json_escape(id))
}

/// The typed error line for an input line that is not a runnable
/// request: malformed, over-long, or unbuildable. Both front ends emit
/// it, and the stream carries on.
pub fn bad_request_line(error: &str) -> String {
    format!("{{\"outcome\":\"bad_request\",\"error\":\"{}\"}}", json_escape(error))
}

/// The typed overload line the server writes (and then closes the
/// socket) when its connection cap is reached: load shedding at the
/// accept boundary, never unbounded buffering.
pub fn overloaded_line(max_connections: usize) -> String {
    format!(
        "{{\"outcome\":\"overloaded\",\"error\":\"connection limit {max_connections} reached\"}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request_line() {
        let req = parse_request(
            r#"{"id":"r0","n":48,"m":20,"k":3,"seed":7,"oracle":"greedy,exact","kernel":"csr","deadline_ms":250}"#,
            None,
        )
        .expect("parses");
        assert_eq!(req.id, "r0");
        assert_eq!(req.chain.len(), 2);
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
        // The resilient driver has no memo, so the old key is refused.
        let refused = parse_request(r#"{"id":"r1","oracle_cache":true}"#, None).unwrap_err();
        assert!(refused.starts_with("unknown field \"oracle_cache\""), "{refused}");
    }

    #[test]
    fn default_deadline_applies_only_without_an_explicit_one() {
        let with_default =
            parse_request(r#"{"id":"a"}"#, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(with_default.deadline, Some(Duration::from_millis(100)));
        let explicit =
            parse_request(r#"{"id":"a","deadline_ms":5}"#, Some(Duration::from_millis(100)))
                .unwrap();
        assert_eq!(explicit.deadline, Some(Duration::from_millis(5)));
        let none = parse_request(r#"{"id":"a"}"#, None).unwrap();
        assert_eq!(none.deadline, None);
    }

    #[test]
    fn rejects_malformed_lines_with_field_context() {
        assert!(parse_request("not json", None).is_err());
        assert!(parse_request(r#"{"n":32}"#, None).unwrap_err().contains("\"id\""));
        assert!(parse_request(r#"{"id":42}"#, None).is_err());
        assert!(parse_request(r#"{"id":"x","faults":"zap"}"#, None)
            .unwrap_err()
            .contains("unknown fault"));
        assert!(parse_request(r#"{"id":"x","oracle":"psychic"}"#, None)
            .unwrap_err()
            .contains("unknown oracle"));
        assert!(parse_request(r#"{"id":"x","kernel":"quantum"}"#, None)
            .unwrap_err()
            .contains("unknown kernel"));
        assert!(parse_request(r#"{"id":"x","nested":{"a":1}}"#, None).is_err());
    }

    #[test]
    fn result_lines_are_stable() {
        let ok = ServiceResponse {
            id: "a\"b".to_string(),
            outcome: RequestOutcome::Ok { phases: 2, set_size: 30, colors: 6 },
            queue_wait: Duration::ZERO,
            latency: Duration::from_millis(3),
        };
        assert_eq!(
            response_line(&ok),
            r#"{"id":"a\"b","outcome":"ok","phases":2,"set_size":30,"colors":6}"#
        );
        assert_eq!(rejected_line("r9"), r#"{"id":"r9","outcome":"rejected"}"#);
        assert_eq!(bad_request_line("boom\n"), r#"{"outcome":"bad_request","error":"boom\n"}"#);
        assert_eq!(
            overloaded_line(8),
            r#"{"outcome":"overloaded","error":"connection limit 8 reached"}"#
        );
    }
}

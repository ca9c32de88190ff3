//! The Chrome-trace exporter must emit JSON that round-trips through a
//! `serde`-free parser: structurally valid, Perfetto-shaped (`traceEvents`
//! array of objects with `ph`/`ts`/`pid`/`tid`), and with monotone
//! timestamps per track.

use armbar_barriers::Barrier;
use armbar_sim::{Machine, Op, Platform, Script, SimThread};

/// A minimal JSON value for validation.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Hand-rolled recursive-descent JSON parser (no serde in the workspace —
/// that is the point of the test: the emitted text must be plain valid
/// JSON, not something only our own writer understands).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) {
        assert_eq!(
            self.peek(),
            Some(b),
            "expected {:?} at byte {}",
            b as char,
            self.pos
        );
        self.pos += 1;
    }

    fn value(&mut self) -> Json {
        match self.peek().expect("unexpected end of input") {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Json {
        assert!(
            self.bytes[self.pos..].starts_with(lit.as_bytes()),
            "bad literal at byte {}",
            self.pos
        );
        self.pos += lit.len();
        v
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Json::Obj(fields);
        }
        loop {
            self.skip_ws();
            let key = self.string();
            self.expect(b':');
            fields.push((key, self.value()));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Json::Obj(fields);
                }
                other => panic!("bad object separator {other:?} at byte {}", self.pos),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                other => panic!("bad array separator {other:?} at byte {}", self.pos),
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return out;
                }
                b'\\' => {
                    self.pos += 1;
                    let c = self.bytes[self.pos];
                    self.pos += 1;
                    match c {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).unwrap();
                            let code = u32::from_str_radix(hex, 16).expect("bad \\u escape");
                            self.pos += 4;
                            out.push(char::from_u32(code).expect("bad code point"));
                        }
                        other => panic!("bad escape \\{}", other as char),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let s = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                    let c = s.chars().next().unwrap();
                    assert!(
                        (c as u32) >= 0x20,
                        "unescaped control character in string at byte {}",
                        self.pos
                    );
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }

    fn parse_document(mut self) -> Json {
        let v = self.value();
        self.skip_ws();
        assert_eq!(self.pos, self.bytes.len(), "trailing garbage after JSON");
        v
    }
}

/// Runs a fixed list of ops, then halts.
fn ops_thread(ops: Vec<Op>) -> Box<dyn SimThread> {
    Box::new(Script::new(|cpu| async move {
        for op in ops {
            cpu.op(op).await;
        }
    }))
}

fn traced_run() -> String {
    let mut m = Machine::new(Platform::kunpeng916());
    m.enable_trace(8192);
    m.set_region_home(0x100, 0x200, 32);
    let producer = vec![
        Op::store(0x100, 1),
        Op::Fence(Barrier::DmbSt),
        Op::store(0x140, 1),
        Op::Fence(Barrier::DmbFull),
        Op::Fence(Barrier::DsbFull),
        Op::IterationMark,
        Op::store(0x180, 2),
        Op::Fence(Barrier::Isb),
        Op::load_use(0x140),
    ];
    let consumer = vec![
        Op::load_use(0x100),
        Op::Fence(Barrier::DmbLd),
        Op::load_use(0x140),
        Op::IterationMark,
    ];
    m.add_thread_on(0, ops_thread(producer));
    m.add_thread_on(32, ops_thread(consumer));
    assert!(m.run(1_000_000).halted);
    m.take_trace().to_chrome_json()
}

#[test]
fn chrome_trace_json_round_trips_without_serde() {
    let json = traced_run();
    let doc = Parser::new(&json).parse_document();
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty(), "a barrier-heavy run must emit events");
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(
            ph == "X" || ph == "i",
            "only complete and instant events are emitted, got {ph:?}"
        );
        assert!(e.get("name").and_then(Json::as_str).is_some(), "name");
        assert!(e.get("ts").and_then(Json::as_num).is_some(), "ts");
        assert_eq!(e.get("pid").and_then(Json::as_num), Some(0.0), "pid");
        assert!(e.get("tid").and_then(Json::as_num).is_some(), "tid");
        if ph == "X" {
            let dur = e.get("dur").and_then(Json::as_num).expect("X needs dur");
            assert!(dur >= 0.0);
        }
    }
}

#[test]
fn chrome_trace_timestamps_are_monotone_per_track() {
    let json = traced_run();
    let doc = Parser::new(&json).parse_document();
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut tracks = std::collections::HashSet::new();
    for e in events {
        let tid = e.get("tid").and_then(Json::as_num).unwrap() as u64;
        let ts = e.get("ts").and_then(Json::as_num).unwrap();
        tracks.insert(tid);
        if let Some(&prev) = last_ts.get(&tid) {
            assert!(ts >= prev, "track {tid} went backwards: {ts} after {prev}");
        }
        last_ts.insert(tid, ts);
    }
    assert_eq!(tracks.len(), 2, "both cores must appear as tracks");
}

#[test]
fn stall_slices_cover_the_breakdown_causes() {
    // Stall slices carry the cause labels exported by StallBreakdown.
    let json = traced_run();
    assert!(
        json.contains("stall:"),
        "a barrier-heavy traced run must contain stall slices"
    );
    let known = armbar_sim::StallBreakdown::CAUSE_LABELS;
    for part in json.split("stall:").skip(1) {
        let label: String = part.chars().take_while(|c| *c != '"').collect();
        assert!(
            known.contains(&label.as_str()),
            "unknown stall cause label {label:?}"
        );
    }
}

//! Runs the `paper` binary the way the docs say to: the whole suite at
//! a smoke scale, from a scratch directory — the `BENCH_*.json` writers
//! write to the working directory, and the checked-in files are records.

use gthinker_bench::experiments::ROWS;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// A JSON reader just big enough to say "this parses" and which keys it
/// holds: returns the path of every object key (`a.b`, arrays as `[]`).
struct Json<'a> {
    s: &'a [u8],
    i: usize,
    keys: BTreeSet<String>,
}

impl Json<'_> {
    fn key_paths(text: &str) -> Result<BTreeSet<String>, String> {
        let mut p = Json { s: text.as_bytes(), i: 0, keys: BTreeSet::new() };
        p.value("")?;
        p.ws();
        if p.i != p.s.len() {
            return Err(p.err("trailing bytes"));
        }
        Ok(p.keys)
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while let Some(&c) = self.s.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(String::from_utf8_lossy(&self.s[start..self.i - 1]).into_owned());
                }
                b'\\' => self.i += 2,
                _ => self.i += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    /// `{ .. }` or `[ .. ]`: `item` reads one member, commas between.
    fn members(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.i += 1;
        self.ws();
        if self.s.get(self.i) == Some(&close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            if self.s.get(self.i) == Some(&b',') {
                self.i += 1;
            } else {
                return self.eat(close);
            }
        }
    }

    fn value(&mut self, path: &str) -> Result<(), String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.members(b'}', |p| {
                let key = p.string()?;
                let path = if path.is_empty() { key } else { format!("{path}.{key}") };
                p.keys.insert(path.clone());
                p.eat(b':')?;
                p.value(&path)
            }),
            Some(b'[') => self.members(b']', |p| p.value(&format!("{path}[]"))),
            Some(b'"') => self.string().map(drop),
            Some(_) => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| !b",]} \n\r\t".contains(c)) {
                    self.i += 1;
                }
                let word = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
                if matches!(word, "true" | "false" | "null") || word.parse::<f64>().is_ok() {
                    Ok(())
                } else {
                    Err(self.err("not a JSON value"))
                }
            }
            None => Err(self.err("unexpected end")),
        }
    }
}

#[test]
fn the_json_reader_reads_json_and_refuses_the_rest() {
    let keys = Json::key_paths(r#"{"a": {"b": [1, {"c": "x\"y"}], "d": -1.5e3}, "e": null}"#);
    let want = ["a", "a.b", "a.b[].c", "a.d", "e"].map(String::from);
    assert_eq!(keys.unwrap(), BTreeSet::from(want));
    for bad in ["", "{", r#"{"a": }"#, r#"{"a": 1,}"#, r#"{"a": 1} x"#, "[1 2]", r#"{"a": nope}"#] {
        assert!(Json::key_paths(bad).is_err(), "{bad}");
    }
}

/// `paper all --scale 0.05`: every row runs to exit 0 in a process of
/// its own, in table order, and leaves the six `BENCH_*.json` files —
/// each parsing, each with the keys of the checked-in record.
#[test]
fn paper_all_runs_every_row_and_writes_the_six_json_files() {
    let dir = std::env::temp_dir().join(format!("gthinker-paper-all-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["all", "--scale", "0.05"])
        .current_dir(&dir)
        .output()
        .expect("spawn paper");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "paper all: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut from = 0;
    for row in ROWS {
        let banner = format!("## {}\n", row.banner);
        let at = stdout[from..].find(&banner);
        from += at.unwrap_or_else(|| panic!("{} did not run, or out of order", row.name));
    }
    assert!(stdout.ends_with("all harnesses completed\n"), "{stdout}");

    let records = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for layer in ["sched", "steal", "storage", "net", "metrics", "telemetry"] {
        let file = format!("BENCH_{layer}.json");
        let read = |at: &Path| {
            let text = std::fs::read_to_string(at.join(&file))
                .unwrap_or_else(|e| panic!("{}: {e}", at.join(&file).display()));
            Json::key_paths(&text).unwrap_or_else(|e| panic!("{file}: {e}\n{text}"))
        };
        assert_eq!(read(&dir), read(&records), "{file}: keys differ from the checked-in record");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

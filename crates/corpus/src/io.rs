//! TSV serialization of corpora.
//!
//! Experiment artifacts (generated corpora, refined datasets) are stored in
//! a simple line-oriented, tab-separated format so they can be inspected
//! with standard tools and diffed across runs. Tabs, newlines, and
//! backslashes inside fields are escaped. The format is versioned by a
//! header line.
//!
//! ```text
//! #darklight-corpus v1 <name>
//! U<TAB><alias><TAB><persona|->
//! F<TAB><kind><TAB><value>          (facts of the last U)
//! P<TAB><timestamp><TAB><topic><TAB><text>   (posts of the last U)
//! ```

use crate::model::{Corpus, Fact, FactKind, Post, User};
use darklight_obs::PipelineMetrics;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};
use std::string::FromUtf8Error;

/// Errors produced while reading the TSV format.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The header line is missing or has the wrong version.
    BadHeader(String),
    /// A malformed record line, with its 1-based line number.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// Explanation of the problem.
        reason: String,
    },
    /// Lenient ingestion quarantined more than the configured share of
    /// lines — the input is too dirty to trust, and returning a mostly
    /// empty corpus would make silent total data loss look like success.
    TooManyBadLines {
        /// Lines quarantined.
        quarantined: usize,
        /// Non-empty lines read (header included).
        total: usize,
        /// The configured tolerance (fraction of lines, 0.0–1.0).
        max_bad_ratio: f64,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error reading corpus: {e}"),
            ReadError::BadHeader(h) => write!(f, "bad corpus header: {h:?}"),
            ReadError::BadRecord { line, reason } => {
                write!(f, "bad corpus record at line {line}: {reason}")
            }
            ReadError::TooManyBadLines {
                quarantined,
                total,
                max_bad_ratio,
            } => write!(
                f,
                "quarantined {quarantined} of {total} lines, over the {:.1}% budget — \
                 input too dirty to ingest",
                max_bad_ratio * 100.0
            ),
        }
    }
}

impl Error for ReadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

/// Strips a leading UTF-8 byte-order mark from the header line. Editors
/// (notably on Windows) prepend one invisibly; without this the header
/// prefix match fails and an otherwise clean corpus is rejected. Only the
/// first line of a file can carry a BOM, so callers apply this to the
/// header only — record lines are left untouched.
fn strip_bom(s: &str) -> &str {
    s.strip_prefix('\u{feff}').unwrap_or(s)
}

/// Quarantine reason for a line that is not valid UTF-8.
const NOT_UTF8: &str = "line is not valid UTF-8";

/// The input's lines, split exactly as [`BufRead::lines`] splits them, but
/// a line that is not valid UTF-8 comes back as `Ok(Err(..))` rather than
/// as an I/O error — so a reader can tell one bad line from a failing
/// stream and keep going.
fn lines<R: BufRead>(
    mut r: R,
) -> impl Iterator<Item = std::io::Result<Result<String, FromUtf8Error>>> {
    std::iter::from_fn(move || {
        let mut buf = Vec::new();
        match r.read_until(b'\n', &mut buf) {
            Ok(0) => None,
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                }
                Some(Ok(String::from_utf8(buf)))
            }
            Err(e) => Some(Err(e)),
        }
    })
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Writes a corpus in the TSV format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_corpus<W: Write>(corpus: &Corpus, mut w: W) -> std::io::Result<()> {
    writeln!(w, "#darklight-corpus v1 {}", escape(&corpus.name))?;
    for user in &corpus.users {
        let persona = match user.persona {
            Some(p) => p.to_string(),
            None => "-".to_string(),
        };
        writeln!(w, "U\t{}\t{}", escape(&user.alias), persona)?;
        for fact in &user.facts {
            writeln!(w, "F\t{}\t{}", fact.kind.as_str(), escape(&fact.value))?;
        }
        for post in &user.posts {
            writeln!(
                w,
                "P\t{}\t{}\t{}",
                post.timestamp,
                escape(&post.topic),
                escape(&post.text)
            )?;
        }
    }
    Ok(())
}

/// Category of a line rejected during ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueKind {
    /// The header line is missing or has the wrong version.
    BadHeader,
    /// A record line with an unknown type tag or missing fields.
    BadRecord,
    /// An `F`/`P` record with no user to attach to (none seen yet, or the
    /// preceding `U` line was itself quarantined).
    OrphanRecord,
    /// A record whose shape is right but a field does not parse (persona
    /// or timestamp not an integer, unknown fact kind), or a line that is
    /// not valid UTF-8.
    UnparseableField,
}

impl IssueKind {
    /// Stable lowercase name, used in reports and metric suffixes.
    pub fn as_str(self) -> &'static str {
        match self {
            IssueKind::BadHeader => "bad_header",
            IssueKind::BadRecord => "bad_record",
            IssueKind::OrphanRecord => "orphan_record",
            IssueKind::UnparseableField => "unparseable_field",
        }
    }
}

/// One quarantined line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestIssue {
    /// 1-based line number in the input.
    pub line: usize,
    /// Issue category.
    pub kind: IssueKind,
    /// Explanation of the problem.
    pub reason: String,
}

impl fmt::Display for IngestIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: [{}] {}",
            self.line,
            self.kind.as_str(),
            self.reason
        )
    }
}

/// What lenient ingestion kept and what it quarantined.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Every quarantined line, in input order.
    pub issues: Vec<IngestIssue>,
    /// Non-empty lines read, header included.
    pub lines_total: usize,
    /// Record lines that made it into the corpus.
    pub records_kept: usize,
}

impl IngestReport {
    /// Number of quarantined lines.
    pub fn quarantined(&self) -> usize {
        self.issues.len()
    }

    /// Number of quarantined lines of one category.
    pub fn count(&self, kind: IssueKind) -> usize {
        self.issues.iter().filter(|i| i.kind == kind).count()
    }

    /// `true` when nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Quarantined share of all non-empty lines (0.0 for empty input).
    pub fn bad_ratio(&self) -> f64 {
        if self.lines_total == 0 {
            0.0
        } else {
            self.quarantined() as f64 / self.lines_total as f64
        }
    }
}

/// Tolerance settings for [`read_corpus_lenient`].
#[derive(Debug, Clone, PartialEq)]
pub struct LenientConfig {
    /// Fail with [`ReadError::TooManyBadLines`] when more than this
    /// fraction of non-empty lines is quarantined (default 0.5). `1.0`
    /// never fails on dirty data; `0.0` quarantines nothing silently —
    /// any bad line over the budget aborts, like strict mode with a
    /// better report.
    pub max_bad_ratio: f64,
    /// Quarantine counters are recorded here (`ingest.*`); disabled by
    /// default.
    pub metrics: PipelineMetrics,
}

impl Default for LenientConfig {
    fn default() -> LenientConfig {
        LenientConfig {
            max_bad_ratio: 0.5,
            metrics: PipelineMetrics::disabled(),
        }
    }
}

/// One successfully parsed record line.
enum RecordLine {
    User(User),
    Fact(Fact),
    Post(Post),
}

/// Parses one non-empty record line. `has_user` says whether an `F`/`P`
/// line has a live user to attach to. Shared by the strict and lenient
/// readers so the two modes cannot drift on what counts as malformed.
fn parse_record_line(line: &str, has_user: bool) -> Result<RecordLine, (IssueKind, String)> {
    let bad = |reason: &str| (IssueKind::BadRecord, reason.to_string());
    let unparseable = |reason: &str| (IssueKind::UnparseableField, reason.to_string());
    let mut fields = line.split('\t');
    match fields.next() {
        Some("U") => {
            let alias = fields.next().ok_or_else(|| bad("missing alias"))?;
            let persona = fields.next().ok_or_else(|| bad("missing persona"))?;
            let persona = if persona == "-" {
                None
            } else {
                Some(
                    persona
                        .parse::<u64>()
                        .map_err(|_| unparseable("persona is not an integer"))?,
                )
            };
            Ok(RecordLine::User(User::new(unescape(alias), persona)))
        }
        Some("F") => {
            if !has_user {
                return Err((IssueKind::OrphanRecord, "fact before any user".to_string()));
            }
            let kind = fields.next().ok_or_else(|| bad("missing fact kind"))?;
            let kind = FactKind::parse(kind).ok_or_else(|| unparseable("unknown fact kind"))?;
            let value = fields.next().ok_or_else(|| bad("missing fact value"))?;
            Ok(RecordLine::Fact(Fact::new(kind, unescape(value))))
        }
        Some("P") => {
            if !has_user {
                return Err((IssueKind::OrphanRecord, "post before any user".to_string()));
            }
            let ts = fields
                .next()
                .ok_or_else(|| bad("missing timestamp"))?
                .parse::<i64>()
                .map_err(|_| unparseable("timestamp is not an integer"))?;
            let topic = fields.next().ok_or_else(|| bad("missing topic"))?;
            let text = fields.next().ok_or_else(|| bad("missing text"))?;
            Ok(RecordLine::Post(Post::with_topic(
                unescape(text),
                ts,
                unescape(topic),
            )))
        }
        Some(other) => Err(bad(&format!("unknown record type {other:?}"))),
        None => unreachable!("split always yields at least one item"),
    }
}

/// Reads a corpus from the TSV format, aborting on the first problem.
///
/// # Errors
///
/// Returns [`ReadError`] on I/O failure, a bad header, or malformed record
/// lines.
pub fn read_corpus<R: BufRead>(r: R) -> Result<Corpus, ReadError> {
    let mut lines = lines(r).enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ReadError::BadHeader("<empty input>".into()))?;
    let header =
        header?.map_err(|e| ReadError::BadHeader(String::from_utf8_lossy(e.as_bytes()).into()))?;
    let name = strip_bom(&header)
        .strip_prefix("#darklight-corpus v1 ")
        .ok_or_else(|| ReadError::BadHeader(header.clone()))?;
    let mut corpus = Corpus::new(unescape(name));
    for (idx, line) in lines {
        // `idx` counts from the header at 0, so the 1-based file line of
        // this record is `idx + 1` — with no further increment (a record
        // on file line 2 is reported as line 2, pinned by a regression
        // test).
        let lineno = idx + 1;
        let Ok(line) = line? else {
            return Err(ReadError::BadRecord {
                line: lineno,
                reason: NOT_UTF8.to_string(),
            });
        };
        if line.is_empty() {
            continue;
        }
        match parse_record_line(&line, !corpus.users.is_empty()) {
            Ok(RecordLine::User(user)) => corpus.users.push(user),
            Ok(RecordLine::Fact(fact)) => {
                corpus
                    .users
                    .last_mut()
                    .expect("has_user checked")
                    .facts
                    .push(fact);
            }
            Ok(RecordLine::Post(post)) => {
                corpus
                    .users
                    .last_mut()
                    .expect("has_user checked")
                    .posts
                    .push(post);
            }
            Err((_, reason)) => {
                return Err(ReadError::BadRecord {
                    line: lineno,
                    reason,
                })
            }
        }
    }
    Ok(corpus)
}

/// Reads a corpus from the TSV format, quarantining malformed lines
/// instead of aborting.
///
/// Every rejected line lands in the returned [`IngestReport`] with its
/// 1-based line number and an [`IssueKind`]; well-formed lines are kept.
/// A bad or missing header is itself quarantined (the corpus is named
/// `<unnamed>` and line 1 is retried as a record line). `F`/`P` lines
/// following a *quarantined* `U` line are quarantined as orphans rather
/// than mis-attached to the previous user. A line that is not valid
/// UTF-8 is quarantined like any other bad line and reading goes on.
/// Quarantine activity is recorded in `config.metrics` under `ingest.*`.
///
/// # Errors
///
/// Returns [`ReadError::TooManyBadLines`] when the quarantined share
/// exceeds `config.max_bad_ratio` — silent near-total data loss must not
/// look like a clean load. I/O failures mid-stream are quarantined as a
/// truncated tail (everything read so far is kept), because a scrape cut
/// off mid-record is exactly the dirty input this mode exists for.
pub fn read_corpus_lenient<R: BufRead>(
    r: R,
    config: &LenientConfig,
) -> Result<(Corpus, IngestReport), ReadError> {
    let mut report = IngestReport::default();
    let mut corpus = Corpus::new("<unnamed>");
    // `true` once a U line has been accepted; set back to false when a U
    // line is quarantined so its F/P lines orphan instead of attaching to
    // the wrong user.
    let mut last_user_ok = false;
    let mut lines = lines(r).enumerate();
    let mut pending_first: Option<(usize, String)> = None;
    match lines.next() {
        None => report.issues.push(IngestIssue {
            line: 1,
            kind: IssueKind::BadHeader,
            reason: "empty input".to_string(),
        }),
        Some((_, Err(e))) => report.issues.push(IngestIssue {
            line: 1,
            kind: IssueKind::BadHeader,
            reason: format!("i/o error: {e}"),
        }),
        Some((_, Ok(Err(_)))) => {
            report.lines_total += 1;
            report.issues.push(IngestIssue {
                line: 1,
                kind: IssueKind::BadHeader,
                reason: NOT_UTF8.to_string(),
            });
        }
        Some((_, Ok(Ok(header)))) => {
            report.lines_total += 1;
            match strip_bom(&header).strip_prefix("#darklight-corpus v1 ") {
                Some(name) => corpus.name = unescape(name),
                None => {
                    report.issues.push(IngestIssue {
                        line: 1,
                        kind: IssueKind::BadHeader,
                        reason: format!("bad corpus header: {header:?}"),
                    });
                    // The file may simply lack a header; retry line 1 as a
                    // record below.
                    pending_first = Some((1, header));
                }
            }
        }
    }
    let first = pending_first.into_iter().map(|(n, l)| (n, Ok(Ok(l))));
    for (lineno, line) in first.chain(lines.map(|(idx, l)| (idx + 1, l))) {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                // Truncated / unreadable tail: keep what we have.
                report.issues.push(IngestIssue {
                    line: lineno,
                    kind: IssueKind::BadRecord,
                    reason: format!("i/o error, input truncated here: {e}"),
                });
                break;
            }
        };
        if matches!(&line, Ok(l) if l.is_empty()) {
            continue;
        }
        report.lines_total += 1;
        let parsed = match &line {
            Ok(l) => parse_record_line(l, last_user_ok),
            Err(_) => Err((IssueKind::UnparseableField, NOT_UTF8.to_string())),
        };
        match parsed {
            Ok(RecordLine::User(user)) => {
                corpus.users.push(user);
                last_user_ok = true;
                report.records_kept += 1;
            }
            Ok(RecordLine::Fact(fact)) => {
                corpus
                    .users
                    .last_mut()
                    .expect("last_user_ok")
                    .facts
                    .push(fact);
                report.records_kept += 1;
            }
            Ok(RecordLine::Post(post)) => {
                corpus
                    .users
                    .last_mut()
                    .expect("last_user_ok")
                    .posts
                    .push(post);
                report.records_kept += 1;
            }
            Err((kind, reason)) => {
                // A quarantined U line must not leave its F/P lines
                // attaching to the previous user.
                let bytes = match &line {
                    Ok(l) => l.as_bytes(),
                    Err(e) => e.as_bytes(),
                };
                if bytes == b"U" || bytes.starts_with(b"U\t") {
                    last_user_ok = false;
                }
                report.issues.push(IngestIssue {
                    line: lineno,
                    kind,
                    reason,
                });
            }
        }
    }
    record_ingest_metrics(&config.metrics, &report);
    if report.bad_ratio() > config.max_bad_ratio {
        return Err(ReadError::TooManyBadLines {
            quarantined: report.quarantined(),
            total: report.lines_total,
            max_bad_ratio: config.max_bad_ratio,
        });
    }
    Ok((corpus, report))
}

/// Flushes one ingest run's quarantine counts into `metrics`.
fn record_ingest_metrics(metrics: &PipelineMetrics, report: &IngestReport) {
    if !metrics.is_enabled() {
        return;
    }
    metrics
        .counter("ingest.lines_total")
        .add(report.lines_total as u64);
    metrics
        .counter("ingest.records_kept")
        .add(report.records_kept as u64);
    metrics
        .counter("ingest.quarantined_lines")
        .add(report.quarantined() as u64);
    for kind in [
        IssueKind::BadHeader,
        IssueKind::BadRecord,
        IssueKind::OrphanRecord,
        IssueKind::UnparseableField,
    ] {
        let n = report.count(kind) as u64;
        if n > 0 {
            let counter = match kind {
                IssueKind::BadHeader => metrics.counter("ingest.quarantined.bad_header"),
                IssueKind::BadRecord => metrics.counter("ingest.quarantined.bad_record"),
                IssueKind::OrphanRecord => metrics.counter("ingest.quarantined.orphan_record"),
                IssueKind::UnparseableField => {
                    metrics.counter("ingest.quarantined.unparseable_field")
                }
            };
            counter.add(n);
        }
    }
}

/// Writes `corpus` to a file path.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_corpus(corpus: &Corpus, path: &std::path::Path) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_corpus(corpus, std::io::BufWriter::new(f))
}

/// Reads a corpus from a file path.
///
/// # Errors
///
/// Returns [`ReadError`] on any I/O or format problem.
pub fn load_corpus(path: &std::path::Path) -> Result<Corpus, ReadError> {
    let f = std::fs::File::open(path)?;
    read_corpus(std::io::BufReader::new(f))
}

/// Reads a corpus from a file path leniently; see [`read_corpus_lenient`].
///
/// # Errors
///
/// Returns [`ReadError::Io`] when the file cannot be opened, and
/// [`ReadError::TooManyBadLines`] when the quarantine budget is blown.
pub fn load_corpus_lenient(
    path: &std::path::Path,
    config: &LenientConfig,
) -> Result<(Corpus, IngestReport), ReadError> {
    let f = std::fs::File::open(path)?;
    read_corpus_lenient(std::io::BufReader::new(f), config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Corpus {
        let mut c = Corpus::new("dark web\tforum");
        let mut u = User::new("alias\twith\ttabs", Some(42));
        u.facts.push(Fact::new(FactKind::City, "miami"));
        u.facts.push(Fact::new(FactKind::AliasRef, "other_alias"));
        u.posts.push(Post::with_topic(
            "line one\nline two",
            1_500_000_000,
            "drugs",
        ));
        u.posts
            .push(Post::new("back\\slash and \r carriage", 1_500_000_100));
        c.users.push(u);
        c.users.push(User::new("empty_user", None));
        c
    }

    #[test]
    fn round_trip() {
        let c = sample();
        let mut buf = Vec::new();
        write_corpus(&c, &mut buf).unwrap();
        let back = read_corpus(buf.as_slice()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn escaping_keeps_one_record_per_line() {
        let c = sample();
        let mut buf = Vec::new();
        write_corpus(&c, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // 1 header + 2 U + 2 F + 2 P lines.
        assert_eq!(text.lines().count(), 7);
        for line in text.lines().skip(1) {
            assert!(line.starts_with(['U', 'F', 'P']));
        }
    }

    #[test]
    fn bad_header_rejected() {
        let err = read_corpus("not a header\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadError::BadHeader(_)));
        let err = read_corpus("".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadError::BadHeader(_)));
        let err = read_corpus(&b"#darklight-corpus v1 \xff\n"[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadHeader(_)));
    }

    #[test]
    fn orphan_records_rejected() {
        let data = "#darklight-corpus v1 x\nP\t1\ttopic\ttext\n";
        let err = read_corpus(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("post before any user"));
    }

    #[test]
    fn malformed_fields_rejected() {
        let data = "#darklight-corpus v1 x\nU\ta\tnot_a_number\n";
        let err = read_corpus(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("persona"));
        let data = "#darklight-corpus v1 x\nU\ta\t-\nF\tbogus_kind\tv\n";
        let err = read_corpus(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown fact kind"));
        let data = "#darklight-corpus v1 x\nZ\tfoo\n";
        let err = read_corpus(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown record type"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("darklight_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.tsv");
        let c = sample();
        save_corpus(&c, &path).unwrap();
        let back = load_corpus(&path).unwrap();
        assert_eq!(back, c);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_lines_tolerated() {
        let data = "#darklight-corpus v1 x\n\nU\ta\t-\n\n";
        let c = read_corpus(data.as_bytes()).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn bad_record_reports_exact_line_number() {
        // Header is line 1; the malformed U record sits on file line 2 and
        // must be reported as line 2, not 3 (regression: the reader used
        // to double-increment the line number).
        let data = "#darklight-corpus v1 x\nU\ta\tnot_a_number\n";
        let err = read_corpus(data.as_bytes()).unwrap_err();
        match err {
            ReadError::BadRecord { line, .. } => assert_eq!(line, 2),
            other => panic!("expected BadRecord, got {other:?}"),
        }
        // With a blank line in between, the bad record moves to line 4.
        let data = "#darklight-corpus v1 x\nU\ta\t-\n\nZ\tbogus\n";
        let err = read_corpus(data.as_bytes()).unwrap_err();
        match err {
            ReadError::BadRecord { line, .. } => assert_eq!(line, 4),
            other => panic!("expected BadRecord, got {other:?}"),
        }
        // A line that is not UTF-8 is a bad record too, not an I/O error.
        match read_corpus(corpus_with_a_non_utf8_line().as_slice()).unwrap_err() {
            ReadError::BadRecord { line, reason } => {
                assert_eq!((line, reason.as_str()), (4, NOT_UTF8))
            }
            other => panic!("expected BadRecord, got {other:?}"),
        }
    }

    /// A corpus whose line 4 holds one byte that is not UTF-8, followed
    /// by a second user with 40 posts.
    fn corpus_with_a_non_utf8_line() -> Vec<u8> {
        let mut data = b"#darklight-corpus v1 x\nU\talice\t1\n".to_vec();
        data.extend_from_slice(b"P\t1486375200\tmisc\thello alice\n");
        data.extend_from_slice(b"P\t1486375260\tmisc\tbroken \xff byte\n");
        data.extend_from_slice(b"U\tbob\t2\n");
        for i in 0..40 {
            data.extend_from_slice(
                format!("P\t{}\tmisc\tbob post {i}\n", 1486375300 + i).as_bytes(),
            );
        }
        data
    }

    #[test]
    fn lenient_quarantines_a_non_utf8_line_and_keeps_reading() {
        let data = corpus_with_a_non_utf8_line();
        let (corpus, report) =
            read_corpus_lenient(data.as_slice(), &LenientConfig::default()).unwrap();
        assert_eq!(
            report.issues,
            [IngestIssue {
                line: 4,
                kind: IssueKind::UnparseableField,
                reason: NOT_UTF8.to_string(),
            }]
        );
        assert_eq!(report.lines_total, 45);
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.users[0].posts.len(), 1);
        assert_eq!(corpus.users[1].alias, "bob");
        assert_eq!(corpus.users[1].posts.len(), 40);
    }

    #[test]
    fn non_utf8_user_line_orphans_its_records() {
        let data = b"#darklight-corpus v1 x\nU\talice\t1\nU\t\xff\t2\nP\t1\tt\tnot alice's\n";
        let (corpus, report) = read_corpus_lenient(&data[..], &LenientConfig::default()).unwrap();
        assert_eq!(corpus.len(), 1);
        assert!(corpus.users[0].posts.is_empty());
        assert_eq!(report.count(IssueKind::UnparseableField), 1);
        assert_eq!(report.count(IssueKind::OrphanRecord), 1);
    }

    #[test]
    fn lenient_quarantines_each_taxonomy_kind() {
        // line 1: good header          line 2: orphan post (no user yet)
        // line 3: good user            line 4: unparseable fact kind
        // line 5: unknown record type  line 6: good post
        // line 7: U with bad persona   line 8: post orphaned by line 7
        let data = "#darklight-corpus v1 dirty\n\
                    P\t1\ttopic\tearly\n\
                    U\talice\t7\n\
                    F\tbogus_kind\tv\n\
                    Z\twhat\n\
                    P\t99\tmarket\thello world\n\
                    U\tbob\tNaN\n\
                    P\t100\tmarket\tlost\n";
        let lax = LenientConfig {
            max_bad_ratio: 0.8, // 5 of 8 lines are dirty by design
            ..LenientConfig::default()
        };
        let (corpus, report) =
            read_corpus_lenient(data.as_bytes(), &lax).expect("under the 80% budget");
        assert_eq!(corpus.name, "dirty");
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.users[0].alias, "alice");
        assert_eq!(corpus.users[0].posts.len(), 1);
        assert!(corpus.users[0].facts.is_empty());
        assert_eq!(report.lines_total, 8);
        assert_eq!(report.records_kept, 2); // alice + her surviving post
        assert_eq!(report.quarantined(), 5);
        assert_eq!(report.count(IssueKind::OrphanRecord), 2); // lines 2, 8
        assert_eq!(report.count(IssueKind::UnparseableField), 2); // lines 4, 7
        assert_eq!(report.count(IssueKind::BadRecord), 1); // line 5
        assert_eq!(report.count(IssueKind::BadHeader), 0);
        let lines: Vec<usize> = report.issues.iter().map(|i| i.line).collect();
        assert_eq!(lines, vec![2, 4, 5, 7, 8]);
    }

    #[test]
    fn lenient_matches_strict_on_clean_input() {
        let c = sample();
        let mut buf = Vec::new();
        write_corpus(&c, &mut buf).unwrap();
        let (back, report) =
            read_corpus_lenient(buf.as_slice(), &LenientConfig::default()).unwrap();
        assert_eq!(back, c);
        assert!(report.is_clean());
        assert_eq!(report.lines_total, 7);
        assert_eq!(report.records_kept, 6);
    }

    #[test]
    fn lenient_missing_header_retries_line_one_as_record() {
        let data = "U\ta\t-\nP\t5\tt\thello\n";
        let (corpus, report) =
            read_corpus_lenient(data.as_bytes(), &LenientConfig::default()).unwrap();
        assert_eq!(corpus.name, "<unnamed>");
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.users[0].posts.len(), 1);
        assert_eq!(report.count(IssueKind::BadHeader), 1);
        assert_eq!(report.issues[0].line, 1);
    }

    #[test]
    fn lenient_budget_blown_fails_loudly() {
        // 1 good header + 1 good user + 4 garbage lines: 4/6 > 50%.
        let data = "#darklight-corpus v1 x\nU\ta\t-\nZ\n?\nZ\tx\n!\n";
        let err = read_corpus_lenient(data.as_bytes(), &LenientConfig::default()).unwrap_err();
        match err {
            ReadError::TooManyBadLines {
                quarantined, total, ..
            } => {
                assert_eq!(quarantined, 4);
                assert_eq!(total, 6);
            }
            other => panic!("expected TooManyBadLines, got {other:?}"),
        }
        // The same input loads under a 100% budget.
        let lax = LenientConfig {
            max_bad_ratio: 1.0,
            ..LenientConfig::default()
        };
        let (corpus, report) = read_corpus_lenient(data.as_bytes(), &lax).unwrap();
        assert_eq!(corpus.len(), 1);
        assert_eq!(report.quarantined(), 4);
    }

    /// A reader that yields `limit` bytes then fails — a scrape truncated
    /// mid-transfer.
    struct FlakyReader<'a> {
        data: &'a [u8],
        pos: usize,
        limit: usize,
    }

    impl std::io::Read for FlakyReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.limit {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection reset mid-record",
                ));
            }
            let n = buf
                .len()
                .min(self.limit - self.pos)
                .min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn lenient_keeps_prefix_of_truncated_stream() {
        let c = sample();
        let mut buf = Vec::new();
        write_corpus(&c, &mut buf).unwrap();
        // Cut the stream in the middle of the last post line.
        let limit = buf.len() - 10;
        let reader = std::io::BufReader::new(FlakyReader {
            data: &buf,
            pos: 0,
            limit,
        });
        let (corpus, report) = read_corpus_lenient(reader, &LenientConfig::default()).unwrap();
        assert_eq!(corpus.name, c.name);
        assert!(!corpus.users.is_empty());
        assert_eq!(
            report
                .issues
                .iter()
                .filter(|i| i.reason.contains("truncated"))
                .count(),
            1
        );
        // Strict mode on the same stream aborts with an I/O error.
        let reader = std::io::BufReader::new(FlakyReader {
            data: &buf,
            pos: 0,
            limit,
        });
        assert!(matches!(read_corpus(reader).unwrap_err(), ReadError::Io(_)));
    }

    #[test]
    fn lenient_records_metrics() {
        use darklight_obs::PipelineMetrics;
        let metrics = PipelineMetrics::enabled();
        let config = LenientConfig {
            max_bad_ratio: 1.0,
            metrics: metrics.clone(),
        };
        let data = "#darklight-corpus v1 x\nU\ta\t-\nZ\tbogus\nP\t1\tt\thello\n";
        let (_, report) = read_corpus_lenient(data.as_bytes(), &config).unwrap();
        assert_eq!(report.quarantined(), 1);
        assert_eq!(metrics.counter("ingest.lines_total").get(), 4);
        assert_eq!(metrics.counter("ingest.records_kept").get(), 2);
        assert_eq!(metrics.counter("ingest.quarantined_lines").get(), 1);
        assert_eq!(metrics.counter("ingest.quarantined.bad_record").get(), 1);
    }

    #[test]
    fn crlf_line_endings_load_like_unix_ones() {
        // Windows-exported TSVs terminate lines with \r\n; `lines()`
        // strips the \r, so both readers must accept the file unchanged
        // and report the same 1-based line numbers as the \n version.
        let data = "#darklight-corpus v1 win\r\nU\talice\t7\r\nP\t99\tmarket\thello\r\n";
        let c = read_corpus(data.as_bytes()).unwrap();
        assert_eq!(c.name, "win");
        assert_eq!(c.len(), 1);
        assert_eq!(c.users[0].posts.len(), 1);
        assert_eq!(c.users[0].posts[0].text, "hello");
        let (lenient, report) =
            read_corpus_lenient(data.as_bytes(), &LenientConfig::default()).unwrap();
        assert_eq!(lenient, c);
        assert!(report.is_clean());
        assert_eq!(report.lines_total, 3);
        assert_eq!(report.records_kept, 2);
    }

    #[test]
    fn crlf_input_reports_unshifted_line_numbers() {
        // The bad record sits on file line 3 in both encodings; CRLF
        // termination must not shift the number in the report.
        let data = "#darklight-corpus v1 win\r\nU\talice\t7\r\nZ\tbogus\r\nP\t99\tt\tkept\r\n";
        let (_, report) = read_corpus_lenient(data.as_bytes(), &LenientConfig::default()).unwrap();
        assert_eq!(report.quarantined(), 1);
        assert_eq!(report.issues[0].line, 3);
        assert_eq!(report.issues[0].kind, IssueKind::BadRecord);
        match read_corpus(data.as_bytes()).unwrap_err() {
            ReadError::BadRecord { line, .. } => assert_eq!(line, 3),
            other => panic!("expected BadRecord, got {other:?}"),
        }
    }

    #[test]
    fn utf8_bom_before_header_is_ignored() {
        // A BOM glued to the header's `#` must not fail the version
        // match or leak into the corpus name, in either reader.
        let data = "\u{feff}#darklight-corpus v1 bommed\nU\talice\t7\nP\t99\tt\thi\n";
        let c = read_corpus(data.as_bytes()).unwrap();
        assert_eq!(c.name, "bommed");
        assert_eq!(c.len(), 1);
        let (lenient, report) =
            read_corpus_lenient(data.as_bytes(), &LenientConfig::default()).unwrap();
        assert_eq!(lenient, c);
        assert!(report.is_clean());
        assert_eq!(report.records_kept, 2);
    }

    #[test]
    fn bom_with_crlf_keeps_exact_line_numbers() {
        // The worst realistic Windows export: BOM + CRLF. Record lines
        // keep their exact 1-based numbers (bad record on line 4).
        let data =
            "\u{feff}#darklight-corpus v1 both\r\nU\talice\t7\r\nP\t1\tt\tok\r\nU\tbob\tNaN\r\n";
        let (corpus, report) =
            read_corpus_lenient(data.as_bytes(), &LenientConfig::default()).unwrap();
        assert_eq!(corpus.name, "both");
        assert_eq!(corpus.len(), 1);
        assert_eq!(report.quarantined(), 1);
        assert_eq!(report.issues[0].line, 4);
        assert_eq!(report.issues[0].kind, IssueKind::UnparseableField);
    }

    #[test]
    fn escape_unescape_inverse() {
        for s in [
            "plain",
            "tab\there",
            "nl\nhere",
            "back\\slash",
            "\r",
            "\\t literal",
        ] {
            assert_eq!(unescape(&escape(s)), s, "{s:?}");
        }
    }
}

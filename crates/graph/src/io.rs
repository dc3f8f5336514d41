//! SNAP text-format I/O.
//!
//! The evaluation datasets come from the Stanford SNAP collection, which
//! distributes graphs as whitespace-separated `u v` lines with `#` comment
//! headers. This module reads and writes that format (plus the `u v t`
//! triplet extension for temporal graphs), so the real datasets can be
//! dropped in next to the synthetic profiles.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use rayon::prelude::*;

use crate::temporal::{TemporalEdge, TemporalEdgeList};
use crate::types::{EdgeList, NodeId};

/// Errors from parsing SNAP-format text.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line: (1-based line number, content, problem).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        content: String,
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed {
                line,
                content,
                reason,
            } => {
                write!(f, "line {line}: {reason}: {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            ParseError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn parse_fields<const N: usize>(line: &str, lineno: usize) -> Result<Option<[u64; N]>, ParseError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut out = [0u64; N];
    let mut fields = trimmed.split_whitespace();
    for slot in out.iter_mut() {
        let f = fields.next().ok_or(ParseError::Malformed {
            line: lineno,
            content: line.to_string(),
            reason: "too few fields",
        })?;
        *slot = f.parse().map_err(|_| ParseError::Malformed {
            line: lineno,
            content: line.to_string(),
            reason: "field is not an unsigned integer",
        })?;
    }
    if fields.next().is_some() {
        return Err(ParseError::Malformed {
            line: lineno,
            content: line.to_string(),
            reason: "too many fields",
        });
    }
    Ok(Some(out))
}

fn check_node(x: u64, line: usize, content: &str) -> Result<NodeId, ParseError> {
    NodeId::try_from(x).map_err(|_| ParseError::Malformed {
        line,
        content: content.to_string(),
        reason: "node id exceeds u32",
    })
}

/// Bytes read per block. Each block is cut after its last `\n`; the
/// unfinished tail is carried into the next block.
const BLOCK: usize = 1 << 20;

/// Line cap: a line of `MAX_LINE` bytes or more before its `\n` is
/// rejected, so the read buffer never grows past this size.
const MAX_LINE: usize = BLOCK;

/// Bytes of a too-long line kept in its error.
const TOO_LONG_PREFIX: usize = 64;

/// ASCII whitespace as `char::is_whitespace` sees it, minus `\n`.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | 0x0B | 0x0C | b'\r')
}

/// Skips the ASCII whitespace (bar `\n`) from `piece[i]` on.
#[inline]
fn skip_spaces(piece: &[u8], mut i: usize) -> usize {
    while piece.get(i).is_some_and(|&b| is_space(b)) {
        i += 1;
    }
    i
}

/// The byte `b` in each of a word's eight lanes.
const fn lanes(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

/// The eight bytes from `piece[i]` on, `i <= piece.len()`, as a
/// little-endian word, with zero bytes past the end of the piece (a zero
/// byte is not a digit).
#[inline]
fn load(piece: &[u8], i: usize) -> u64 {
    let tail = &piece[i..];
    if let Some(word) = tail.first_chunk::<8>() {
        return u64::from_le_bytes(*word);
    }
    let mut word = [0u8; 8];
    word[..tail.len()].copy_from_slice(tail);
    u64::from_le_bytes(word)
}

/// The value of eight decimal digits, one per byte lane, the most
/// significant in the lowest lane: pairs, then quads, then the whole, in
/// three multiplies.
#[inline]
fn eight_digits(digits: u64) -> u32 {
    const PAIR: u64 = 0x0000_00FF_0000_00FF;
    // Lanes 0, 2, 4, 6 now hold two-digit values; odd lanes are junk.
    let pairs = digits.wrapping_mul(10).wrapping_add(digits >> 8);
    let high = (pairs & PAIR).wrapping_mul(100 + (1_000_000 << 32));
    let low = ((pairs >> 16) & PAIR).wrapping_mul(1 + (10_000 << 32));
    (high.wrapping_add(low) >> 32) as u32
}

/// The decimal field starting at `piece[i]`: its value and the index after
/// its last digit. `None` if `piece[i]` is not a digit, or the field has
/// more than ten digits or exceeds `u32::MAX`.
#[inline]
fn word_field(piece: &[u8], i: usize) -> Option<(u32, usize)> {
    // Digits become their values, every other byte a lane that is > 9.
    let digits = load(piece, i) ^ lanes(b'0');
    // A lane's top bit is set iff it is not a digit. Carries only run up
    // from a non-digit lane, so the lowest set bit is exact.
    let non_digit = (digits.wrapping_add(lanes(0x76)) | digits) & lanes(0x80);
    let len = non_digit.trailing_zeros() as usize / 8;
    if len == 0 {
        return None;
    }
    // The field's digits move to the top lanes; the zero lanes shifted in
    // below read as leading zeros.
    let value = eight_digits(digits << (64 - 8 * len));
    if len < 8 {
        return Some((value, i + len));
    }
    // Eight digits and maybe more: at most two more fit in a `u32`.
    let mut value = u64::from(value);
    let mut end = i + 8;
    while let Some(&b) = piece.get(end).filter(|b| b.is_ascii_digit()) {
        if end == i + 10 {
            return None;
        }
        value = value * 10 + u64::from(b - b'0');
        end += 1;
    }
    Some((u32::try_from(value).ok()?, end))
}

/// The fast path for the line starting at `piece[i]`: exactly `N` ASCII
/// decimal fields of at most ten digits, each at most `u32::MAX`, separated
/// by ASCII whitespace, read a word at a time. Returns the fields and the
/// index after the line's `\n`, or `None` for any line it does not fully
/// accept (comments, blanks, signs, non-ASCII bytes, longer fields,
/// overflow, garbage, the wrong field count).
#[inline]
fn word_line<const N: usize>(piece: &[u8], mut i: usize) -> Option<([u32; N], usize)> {
    let mut fields = [0u32; N];
    for field in &mut fields {
        (*field, i) = word_field(piece, skip_spaces(piece, i))?;
    }
    i = skip_spaces(piece, i);
    match piece.get(i) {
        None => Some((fields, i)),
        Some(b'\n') => Some((fields, i + 1)),
        Some(_) => None,
    }
}

/// The error `BufRead::lines` reports for a line that is not UTF-8.
fn invalid_utf8() -> ParseError {
    ParseError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// The slow path: one line (without its line terminator) through
/// [`parse_fields`] and `finish`, exactly as a line-at-a-time reader sees it.
/// A record comes with the larger of its first two fields.
fn slow_line<T, const N: usize>(
    line: &[u8],
    lineno: usize,
    finish: &impl Fn([u64; N], usize, &str) -> Result<T, ParseError>,
) -> Result<Option<(T, u64)>, ParseError> {
    let line = std::str::from_utf8(line).map_err(|_| invalid_utf8())?;
    parse_fields::<N>(line, lineno)?
        .map(|fields| Ok((finish(fields, lineno, line)?, fields[0].max(fields[1]))))
        .transpose()
}

/// Parses a newline-aligned piece, appending its records to `out`. Returns
/// the number of lines in the piece and the largest of its records' first
/// two fields (0 without records); an error's line number counts from 1 at
/// the start of the piece.
fn parse_piece<T, const N: usize>(
    piece: &[u8],
    out: &mut Vec<T>,
    fast: &impl Fn([u32; N]) -> T,
    finish: &impl Fn([u64; N], usize, &str) -> Result<T, ParseError>,
) -> Result<(usize, u64), ParseError> {
    const { assert!(N >= 2, "the first two fields are node ids") };
    let mut lines = 0;
    let mut top = 0;
    let mut i = 0;
    while i < piece.len() {
        lines += 1;
        if let Some((fields, next)) = word_line::<N>(piece, i) {
            top = top.max(u64::from(fields[0].max(fields[1])));
            out.push(fast(fields));
            i = next;
            continue;
        }
        let end = piece[i..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(piece.len(), |k| i + k);
        let mut line = &piece[i..end];
        // `BufRead::lines` drops the `\r` of a `\r\n` terminator only.
        if end < piece.len() {
            line = line.strip_suffix(b"\r").unwrap_or(line);
        }
        if let Some((record, ids)) = slow_line(line, lines, finish)? {
            top = top.max(ids);
            out.push(record);
        }
        i = end + 1;
    }
    Ok((lines, top))
}

/// Shifts a piece-relative line number past the `before` lines ahead of it.
fn renumber(e: ParseError, before: usize) -> ParseError {
    match e {
        ParseError::Malformed {
            line,
            content,
            reason,
        } => ParseError::Malformed {
            line: line + before,
            content,
            reason,
        },
        e => e,
    }
}

/// Parses a block of whole lines in `spill.len() + 1` newline-aligned pieces
/// in parallel. Piece 0 appends straight to `out`; the others fill the
/// `spill` vectors, which are then appended in order. `before` is the number
/// of lines ahead of the block. Returns the number of lines in the block and
/// the largest of its records' first two fields, or the first failing line's
/// error in file order.
fn parse_block<T: Send, const N: usize>(
    block: &[u8],
    before: usize,
    out: &mut Vec<T>,
    spill: &mut [Vec<T>],
    fast: &(impl Fn([u32; N]) -> T + Sync),
    finish: &(impl Fn([u64; N], usize, &str) -> Result<T, ParseError> + Sync),
) -> Result<(usize, u64), ParseError> {
    let pieces = spill.len() + 1;
    let mut start = 0;
    let mut jobs = Vec::with_capacity(pieces);
    for (k, sink) in std::iter::once(&mut *out)
        .chain(spill.iter_mut())
        .enumerate()
    {
        let end = if k + 1 == pieces {
            block.len()
        } else {
            let target = (block.len() * (k + 1) / pieces).max(start);
            block[target..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(block.len(), |i| target + i + 1)
        };
        let piece = &block[start..end];
        // A record takes at least `2N` bytes (`N - 1` separators and a
        // `\n`, bar the input's last line), so the workers never grow a sink:
        // all growth stays on this thread and its allocator arena.
        sink.reserve(piece.len() / (2 * N) + 1);
        jobs.push((piece, sink));
        start = end;
    }
    let results: Vec<Result<(usize, u64), ParseError>> = jobs
        .into_par_iter()
        .map(|(piece, sink)| parse_piece(piece, sink, fast, finish))
        .collect();
    let mut lines = before;
    let mut top = 0;
    for r in results {
        let (piece_lines, piece_top) = r.map_err(|e| renumber(e, lines))?;
        lines += piece_lines;
        top = top.max(piece_top);
    }
    for s in spill {
        out.append(s);
    }
    Ok((lines - before, top))
}

/// Reads until `buf` is full or the reader is exhausted, returning true at
/// the end of the input.
fn fill(reader: &mut impl Read, buf: &mut [u8], len: &mut usize) -> io::Result<bool> {
    while *len < buf.len() {
        match reader.read(&mut buf[*len..]) {
            Ok(0) => return Ok(true),
            Ok(n) => *len += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// The block parser both readers share: `N >= 2` unsigned fields per line,
/// the first two node ids. Lines the word-at-a-time fast path accepts become
/// `fast(fields)`; every other line goes through [`slow_line`] and `finish`,
/// so accepted input and every error are those of a line-at-a-time reader.
/// Blocks start at `block` bytes; a line that does not fit grows the buffer,
/// up to [`MAX_LINE`].
///
/// Returns the records and the node count: the largest id in the first two
/// fields plus one, or 0 without records. `finish` must reject node ids past
/// `u32::MAX`.
fn read_records<T: Send, const N: usize>(
    mut reader: impl Read,
    block: usize,
    fast: impl Fn([u32; N]) -> T + Sync,
    finish: impl Fn([u64; N], usize, &str) -> Result<T, ParseError> + Sync,
) -> Result<(Vec<T>, usize), ParseError> {
    let mut out = Vec::new();
    let mut spill: Vec<Vec<T>> = (1..rayon::current_num_threads())
        .map(|_| Vec::new())
        .collect();
    let mut buf = vec![0u8; block.clamp(1, MAX_LINE)];
    let mut len = 0;
    let mut lines = 0;
    let mut top = 0;
    loop {
        let eof = fill(&mut reader, &mut buf, &mut len)?;
        let cut = if eof {
            len
        } else {
            match buf.iter().rposition(|&b| b == b'\n') {
                Some(i) => i + 1,
                None if buf.len() >= MAX_LINE => {
                    return Err(ParseError::Malformed {
                        line: lines + 1,
                        content: String::from_utf8_lossy(&buf[..TOO_LONG_PREFIX]).into_owned(),
                        reason: "line too long",
                    })
                }
                None => {
                    buf.resize((buf.len() * 2).min(MAX_LINE), 0);
                    continue;
                }
            }
        };
        let (block_lines, block_top) =
            parse_block(&buf[..cut], lines, &mut out, &mut spill, &fast, &finish)?;
        lines += block_lines;
        top = top.max(block_top);
        if eof {
            let num_nodes = if out.is_empty() { 0 } else { top as usize + 1 };
            return Ok((out, num_nodes));
        }
        buf.copy_within(cut..len, 0);
        len -= cut;
    }
}

/// Parses SNAP edge-list text (`u v` per line, `#`/`%` comments, blank lines
/// allowed) from any reader. Node count is the largest id plus one, taken
/// during the parse.
///
/// The text is parsed in blocks of about 1 MiB, each split into one piece
/// per thread of the current rayon pool. A line of 1 MiB or more is
/// rejected as `"line too long"`. Errors name the first failing line in
/// file order.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<EdgeList, ParseError> {
    read_edge_list_in_blocks(reader, BLOCK)
}

/// [`read_edge_list`] with blocks of `block` bytes; tests use tiny blocks to
/// land block and piece cuts inside small inputs.
#[doc(hidden)]
pub fn read_edge_list_in_blocks<R: Read>(reader: R, block: usize) -> Result<EdgeList, ParseError> {
    let (edges, num_nodes) = read_records::<_, 2>(
        reader,
        block,
        |[u, v]| (u, v),
        |[u, v], line, content| Ok((check_node(u, line, content)?, check_node(v, line, content)?)),
    )?;
    Ok(EdgeList::from_parsed(num_nodes, edges))
}

/// Reads a SNAP edge-list file.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<EdgeList, ParseError> {
    read_edge_list(BufReader::new(File::open(path)?))
}

/// Writes one record as a SNAP line: `N <= 3` decimal fields, tab-separated,
/// then `\n`; the same bytes as `writeln!` with `{}\t{}`, without the
/// formatting machinery.
fn write_record<const N: usize>(w: &mut impl Write, fields: [u32; N]) -> io::Result<()> {
    // Ten digits and one separator per field, filled from the right.
    let mut line = [0u8; 33];
    let mut end = line.len();
    for (k, mut x) in fields.into_iter().enumerate().rev() {
        end -= 1;
        line[end] = if k + 1 == N { b'\n' } else { b'\t' };
        loop {
            end -= 1;
            line[end] = b'0' + (x % 10) as u8;
            x /= 10;
            if x == 0 {
                break;
            }
        }
    }
    w.write_all(&line[end..])
}

/// Writes SNAP edge-list text (`u\tv` per line) with a small header comment.
pub fn write_edge_list<W: Write>(graph: &EdgeList, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# Nodes: {} Edges: {}",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for &(u, v) in graph.edges() {
        write_record(&mut w, [u, v])?;
    }
    w.flush()
}

/// Writes a SNAP edge-list file.
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &EdgeList, path: P) -> io::Result<()> {
    write_edge_list(graph, File::create(path)?)
}

/// Parses temporal triplet text (`u v t` per line, comments as above) with
/// the block parser of [`read_edge_list`].
pub fn read_temporal_edge_list<R: BufRead>(reader: R) -> Result<TemporalEdgeList, ParseError> {
    read_temporal_edge_list_in_blocks(reader, BLOCK)
}

/// [`read_temporal_edge_list`] with blocks of `block` bytes; tests use tiny
/// blocks to land block and piece cuts inside small inputs.
#[doc(hidden)]
pub fn read_temporal_edge_list_in_blocks<R: Read>(
    reader: R,
    block: usize,
) -> Result<TemporalEdgeList, ParseError> {
    let (events, num_nodes) = read_records::<_, 3>(
        reader,
        block,
        |[u, v, t]| TemporalEdge::new(u, v, t),
        |[u, v, t], line, content| {
            let t = u32::try_from(t).map_err(|_| ParseError::Malformed {
                line,
                content: content.to_string(),
                reason: "timestamp exceeds u32",
            })?;
            Ok(TemporalEdge::new(
                check_node(u, line, content)?,
                check_node(v, line, content)?,
                t,
            ))
        },
    )?;
    Ok(TemporalEdgeList::new(num_nodes, events))
}

/// Reads a temporal triplet file.
pub fn read_temporal_edge_list_file<P: AsRef<Path>>(
    path: P,
) -> Result<TemporalEdgeList, ParseError> {
    read_temporal_edge_list(BufReader::new(File::open(path)?))
}

/// Writes temporal triplet text (`u\tv\tt` per line).
pub fn write_temporal_edge_list<W: Write>(graph: &TemporalEdgeList, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# Nodes: {} Events: {} Frames: {}",
        graph.num_nodes(),
        graph.num_events(),
        graph.num_frames()
    )?;
    for e in graph.events() {
        write_record(&mut w, [e.u, e.v, e.t])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_snap_format() {
        let text = "# Directed graph\n# Nodes: 4 Edges: 3\n0\t1\n1 2\n\n3   0\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.edges(), [(0, 1), (1, 2), (3, 0)]);
    }

    #[test]
    fn percent_comments_and_whitespace() {
        let text = "% matrix-market style comment\n  5 6  \n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.edges(), [(5, 6)]);
        assert_eq!(g.num_nodes(), 7);
    }

    #[test]
    fn rejects_garbage() {
        let err = read_edge_list(Cursor::new("0 x\n")).unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 1, .. }),
            "{err}"
        );

        let err = read_edge_list(Cursor::new("0\n")).unwrap_err();
        assert!(err.to_string().contains("too few fields"));

        let err = read_edge_list(Cursor::new("0 1 2\n")).unwrap_err();
        assert!(err.to_string().contains("too many fields"));
    }

    #[test]
    fn rejects_oversized_node_ids() {
        let err = read_edge_list(Cursor::new("0 4294967296\n")).unwrap_err();
        assert!(err.to_string().contains("exceeds u32"));
    }

    #[test]
    fn roundtrip_edge_list() {
        let g = EdgeList::new(5, vec![(0, 1), (3, 4), (2, 2)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn records_render_as_formatted_text() {
        for fields in [[0, 0, 0], [7, 10, 99], [u32::MAX, 1_000_000, 429_496_729]] {
            let mut three = Vec::new();
            write_record(&mut three, fields).unwrap();
            let [u, v, t] = fields;
            assert_eq!(three, format!("{u}\t{v}\t{t}\n").into_bytes());
            let mut two = Vec::new();
            write_record(&mut two, [u, v]).unwrap();
            assert_eq!(two, format!("{u}\t{v}\n").into_bytes());
        }
    }

    #[test]
    fn roundtrip_temporal() {
        let t = TemporalEdgeList::new(
            4,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(2, 3, 1),
                TemporalEdge::new(0, 1, 2),
            ],
        );
        let mut buf = Vec::new();
        write_temporal_edge_list(&t, &mut buf).unwrap();
        let back = read_temporal_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn temporal_parse_checks_triplets() {
        let err = read_temporal_edge_list(Cursor::new("0 1\n")).unwrap_err();
        assert!(err.to_string().contains("too few fields"));
        let ok = read_temporal_edge_list(Cursor::new("# c\n1 2 3\n")).unwrap();
        assert_eq!(ok.num_events(), 1);
        assert_eq!(ok.events()[0], TemporalEdge::new(1, 2, 3));
    }

    /// Runs `f` with `threads` rayon workers, so a block splits into that
    /// many pieces.
    fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    fn malformed(err: ParseError) -> (usize, String, &'static str) {
        match err {
            ParseError::Malformed {
                line,
                content,
                reason,
            } => (line, content, reason),
            e => panic!("expected a malformed line, got {e}"),
        }
    }

    #[test]
    fn crlf_line_endings() {
        let g = read_edge_list(Cursor::new("# c\r\n0 1\r\n\r\n2\t3\r\n")).unwrap();
        assert_eq!(g.edges(), [(0, 1), (2, 3)]);
        // The `\r` of a `\r\n` terminator is not part of the reported line.
        let err = read_edge_list(Cursor::new("0 1\r\n0 x\r\n")).unwrap_err();
        assert_eq!(
            malformed(err),
            (2, "0 x".into(), "field is not an unsigned integer")
        );
    }

    #[test]
    fn missing_final_newline() {
        let g = read_edge_list(Cursor::new("0 1\n2 3")).unwrap();
        assert_eq!(g.edges(), [(0, 1), (2, 3)]);
        let t = read_temporal_edge_list(Cursor::new("0 1 2\n3 4 5")).unwrap();
        assert_eq!(t.events()[1], TemporalEdge::new(3, 4, 5));
        let err = read_edge_list(Cursor::new("0 1\n2")).unwrap_err();
        assert_eq!(malformed(err), (2, "2".into(), "too few fields"));
    }

    #[test]
    fn leading_zeros_and_plus_signs() {
        let g = read_edge_list(Cursor::new("007 0000000000000000000042\n+5 +0\n")).unwrap();
        assert_eq!(g.edges(), [(7, 42), (5, 0)]);
        let err = read_edge_list(Cursor::new("+4294967296 0\n")).unwrap_err();
        assert_eq!(
            malformed(err),
            (1, "+4294967296 0".into(), "node id exceeds u32")
        );
        let err = read_edge_list(Cursor::new("1 -5\n")).unwrap_err();
        assert_eq!(malformed(err).2, "field is not an unsigned integer");
    }

    #[test]
    fn non_ascii_whitespace_and_invalid_utf8() {
        let g = read_edge_list(Cursor::new("1\u{a0}2\n\x0B3\x0C4\r\n")).unwrap();
        assert_eq!(g.edges(), [(1, 2), (3, 4)]);
        let err = read_edge_list(Cursor::new(b"0 1\n0 \xff\n0 x\n".as_slice())).unwrap_err();
        assert!(
            matches!(&err, ParseError::Io(e) if e.kind() == io::ErrorKind::InvalidData),
            "{err}"
        );
    }

    #[test]
    fn error_in_second_piece_of_second_block() {
        // 32-byte blocks of eight 4-byte lines; with two workers the second
        // block (lines 9-16) splits into lines 9-13 and 14-16.
        let mut text = "0 1\n".repeat(16);
        text.replace_range(14 * 4..15 * 4, "0 x\n");
        text.push_str("0 y\n");
        let err = with_threads(2, || read_edge_list_in_blocks(Cursor::new(&text), 32)).unwrap_err();
        assert_eq!(
            malformed(err),
            (15, "0 x".into(), "field is not an unsigned integer")
        );
        // A failing line in the first piece wins over one in the second.
        text.replace_range(9 * 4..10 * 4, "0  \n");
        let err = with_threads(2, || read_edge_list_in_blocks(Cursor::new(&text), 32)).unwrap_err();
        assert_eq!(malformed(err), (10, "0  ".into(), "too few fields"));
    }

    #[test]
    fn overlong_line_is_rejected_with_a_short_prefix() {
        let mut text = b"0 1\n#".to_vec();
        text.resize(4 + MAX_LINE, b'7');
        text.extend_from_slice(b"\n2 3\n");
        let err = read_edge_list(Cursor::new(&text)).unwrap_err();
        let (line, content, reason) = malformed(err);
        assert_eq!((line, reason), (2, "line too long"));
        assert_eq!(content, format!("#{}", "7".repeat(TOO_LONG_PREFIX - 1)));
        // One byte shorter, the comment fits.
        text.truncate(3 + MAX_LINE);
        text.extend_from_slice(b"\n2 3\n");
        let g = read_edge_list(Cursor::new(&text)).unwrap();
        assert_eq!(g.edges(), [(0, 1), (2, 3)]);
    }

    /// The word kernel's verdict on one line: its fields, or `None` when the
    /// line goes to the slow path.
    fn kernel(line: &str) -> Option<[u32; 2]> {
        word_line::<2>(line.as_bytes(), 0).map(|(fields, end)| {
            assert_eq!(end, line.len(), "{line:?}");
            fields
        })
    }

    #[test]
    fn word_kernel_reads_seven_to_ten_digit_fields() {
        for field in [
            "1234567",
            "12345678",
            "123456789",
            "1234567890",
            "0000000042",
        ] {
            let value = field.parse().unwrap();
            assert_eq!(kernel(&format!("{field} 3\n")), Some([value, 3]), "{field}");
            assert_eq!(
                kernel(&format!("3\t{field}\n")),
                Some([3, value]),
                "{field}"
            );
        }
        assert_eq!(kernel("4294967295 0\n"), Some([u32::MAX, 0]));
        assert_eq!(kernel("0 4294967295"), Some([0, u32::MAX]));
        // Eleven digits, and `u32::MAX + 1`, are the slow path's.
        assert_eq!(kernel("12345678901 0\n"), None);
        assert_eq!(kernel("00000000042 0\n"), None);
        assert_eq!(kernel("4294967296 0\n"), None);
        assert_eq!(kernel("0 9999999999\n"), None);
        // Which reads a long zero-padded field and rejects the overflow.
        let g = read_edge_list(Cursor::new("00000000042 12345678901\n"));
        assert_eq!(malformed(g.unwrap_err()).2, "node id exceeds u32");
        let g = read_edge_list(Cursor::new("00000000042 000000000007\n")).unwrap();
        assert_eq!(g.edges(), [(42, 7)]);
        let err = read_edge_list(Cursor::new("0 4294967296\n")).unwrap_err();
        assert_eq!(malformed(err).2, "node id exceeds u32");
    }

    #[test]
    fn word_kernel_stops_at_the_bytes_beside_the_digits() {
        // `/` and `:` sit just below `'0'` and just above `'9'`.
        for bad in ["12/ 3\n", "12: 3\n", "1 3/\n", "1 3:\n", "/1 3\n", "1 :3\n"] {
            assert_eq!(kernel(bad), None, "{bad:?}");
            let err = read_edge_list(Cursor::new(bad)).unwrap_err();
            assert_eq!(malformed(err).2, "field is not an unsigned integer");
        }
        for bad in ["1234567/ 3\n", "12345678: 3\n", "123456789/ 3\n"] {
            assert_eq!(kernel(bad), None, "{bad:?}");
        }
        assert_eq!(kernel("1234567 8\x00"), None);
        assert_eq!(kernel("\r 5\x0B\x0C6 \r\n"), Some([5, 6]));
    }

    #[test]
    fn word_kernel_pads_the_end_of_a_piece() {
        // Each last field ends inside the piece's final eight bytes, so its
        // word runs past the end and is padded with zero bytes.
        for text in [
            "7 1",
            "7 12345678",
            "7 1234567890",
            "7 123456 \r",
            "0 1\n7 12",
        ] {
            let bytes = text.as_bytes();
            let start = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |k| k + 1);
            let (fields, end) = word_line::<2>(bytes, start).unwrap();
            assert_eq!(end, bytes.len(), "{text:?}");
            let last = text[start..].split_whitespace().nth(1).unwrap();
            assert_eq!(fields, [7, last.parse().unwrap()], "{text:?}");
        }
        // A piece cut right after the digits, without its `\n`.
        let text = "1 2\n3 4\n";
        assert_eq!(word_line::<2>(&text.as_bytes()[..7], 4), Some(([3, 4], 7)));
    }

    #[test]
    fn parsed_node_count_matches_from_pairs() {
        // The largest id sits on a slow-path line (a `+` sign), in a later
        // block and piece than the fast lines.
        let text = "3 1\n0 2\n5 6\n+900 7\n8 9\n% c\n";
        for (block, threads) in [(4, 1), (8, 2), (BLOCK, 3)] {
            let g = with_threads(threads, || {
                read_edge_list_in_blocks(Cursor::new(text), block)
            })
            .unwrap();
            let pairs = EdgeList::from_pairs(g.edges().to_vec());
            assert_eq!(g.num_nodes(), 901);
            assert_eq!(g.num_nodes(), pairs.num_nodes());
            let t = read_temporal_edge_list_in_blocks(
                Cursor::new("1 2 0\n 00000000000040 3 1\n"),
                block,
            )
            .unwrap();
            assert_eq!(t.num_nodes(), 41);
        }
    }

    #[test]
    fn eight_digit_reduction_is_exact() {
        let mut x = 1u32;
        while x < 100_000_000 {
            for v in [x - 1, x, x + 7, x * 3 / 2, 99_999_999] {
                let digits = format!("{v:08}");
                let lanes = u64::from_le_bytes(digits.as_bytes().try_into().unwrap());
                assert_eq!(eight_digits(lanes ^ super::lanes(b'0')), v);
            }
            x *= 10;
        }
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list(Cursor::new("# nothing\n")).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("parcsr-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = EdgeList::new(3, vec![(0, 1), (1, 2)]);
        write_edge_list_file(&g, &path).unwrap();
        let back = read_edge_list_file(&path).unwrap();
        assert_eq!(back.edges(), g.edges());
        std::fs::remove_file(&path).ok();
    }
}

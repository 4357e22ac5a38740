//! # xdx-codec — compact columnar wire codec for sorted feeds
//!
//! [`Feed::to_wire`] ships a feed as tagged text: every row repeats full
//! Dewey digits, every string travels verbatim, every cell pays a type
//! prefix and a separator. That is robust and debuggable, but on a paced
//! wide-area link the byte count *is* the cost model — the paper weights
//! one-way communication so heavily that placement is decided by it.
//!
//! This crate encodes the same feed column-by-column instead:
//!
//! * **per-cell type tags**, two bits per cell packed four to a byte,
//!   doubling as the null bitmap for outer-padded rows;
//! * **derived ids**: an outer-union row carries one instance's path, so
//!   a Dewey column names a *basis* column of its row once per frame, and
//!   a cell that is its basis cell plus one component costs that
//!   component (a *child*), one that is its basis cell less the last
//!   component costs nothing (a *parent*: `PARENT` against the row's
//!   id). Any other cell is an exception, listed in the column's
//!   exception mark (one byte when there is none) and coded explicitly;
//! * **zig-zag delta varints** for `Int` cells and for the diverging
//!   component of each explicit Dewey — the id columns of a sorted feed
//!   are monotone in document order, so consecutive ids share long
//!   prefixes and differ by tiny deltas;
//! * **two-level dictionary encoding** for strings: distinct cell values
//!   become entries of a string table, so a repeated value costs one
//!   index byte per cell — and each table entry is itself a sequence of
//!   space-separated *tokens* indexed into a token dictionary, so even
//!   unique sentences built from a small vocabulary (the XMark
//!   `idescription` pattern) collapse to a run of one-byte word indices;
//! * **framing**: an 8-byte magic (so receivers can sniff columnar vs.
//!   XML text, which always starts with `#feed`), a word-sum digest of
//!   the schema section, and a trailing word-sum checksum over the whole
//!   frame, verified *before* any parsing so a damaged frame is rejected,
//!   never mis-decoded. The word sum ([`xdx_relational::sum`]) is the
//!   tree's one checksum: the tagged-text `#sum` line, the patch frame,
//!   the container header and the chunk frames of `xdx-net` are sealed
//!   with it too.
//!
//! A tagged-text frame must end in its `#sum` line exactly as the
//! encoder writes it — 16 lowercase hex digits and a newline — to decode
//! through [`decode_any`] or [`decode_parts`]: a text frame cut short is
//! an [`Error::Decode`] too, never a shorter feed.
//!
//! A frame carries rows and nothing about the run that encoded it: one
//! feed encodes to the same bytes whoever ships it, traced or not, first
//! run or resume (DESIGN §18).
//!
//! The decoder is defensive throughout: every length is bounds-checked
//! against the remaining input, so truncated or crafted frames produce a
//! [`Error::Decode`], never a panic or an oversized allocation.
//!
//! A frame costs what its bytes cost. The encoder walks the rows once,
//! row-major, appending each cell's tag and payload to its column's
//! buffer and numbering strings and tokens as it first sees them. A
//! string cell is hashed once, eight bytes at a time, for its one probe;
//! a new string is cut at its spaces eight bytes at a time and each of
//! its tokens hashed once. Every key carries its hash into its map, and
//! both maps are sized once from the frame's string cells, so no probe
//! and no growth hashes a byte again. The string ports are most of an
//! encode: on `bulk_combine`'s 63 cross frames of a seed-1 op,
//! `idescription` (sentences over a small vocabulary), `iname` and
//! `mailbox` took 10.5 of 13.2 ms while every key was hashed again on each
//! probe and each growth, and take 5.4 of 7.9 now; a byte-at-a-time scan
//! or maps grown from empty each put about 1 ms back (DESIGN §12).
//!
//! The decoder hashes nothing, borrows tokens from the verified frame,
//! and builds the string table into one arena per frame, so a string
//! cell is copied in place up to 22 bytes and into one exact-size block
//! past that (DESIGN §12, §22). It builds a derived id from the basis
//! cell it already decoded: a copy and a push or a pop, with no varint
//! walk. On XMark (2.5 MB, 1024-row frames) derived ids take an MF
//! fragmentation's frames from 0.285 to 0.228 of the document and an
//! LF one's from 0.229 to 0.172 (DESIGN §12).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use xdx_relational::feed::{append_wire, ReadRows, Row};
use xdx_relational::{
    word_sum, ColRole, DeltaPatch, Dewey, Error, Feed, FeedColumn, FeedSchema, PatchStep, Result,
    RowSlice, StepKind, TablePatch, Value,
};

/// Frame magic of the columnar format. XML-text feeds start with
/// `#feed\t`, so the first byte already separates the two formats;
/// [`is_columnar`] checks all eight for robustness. The third generation:
/// `XDXCOLF2` carried a trace context and was retired (DESIGN §18), and
/// `XDXCOLF3` derives Dewey cells from their row; one decoder reads it.
pub const COLUMNAR_MAGIC: &[u8; 8] = b"XDXCOLF3";

/// Frame magic of the delta-exchange `Patch` format; distinct in its
/// first bytes from both `XDXCOLF3` and `#feed` text so receivers sniff
/// all three frame kinds with one prefix check.
pub const PATCH_MAGIC: &[u8; 8] = b"XDXPATF1";

/// Arity-zero feeds carry no per-row bytes, so the row count in a frame
/// cannot be validated against the frame length; this caps it instead.
const MAX_ZERO_ARITY_ROWS: u64 = 1 << 20;

/// The wire encoding negotiated for a link (or forced per request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireFormat {
    /// Tagged-text feeds ([`Feed::to_wire`]); the universal fallback
    /// every endpoint understands.
    #[default]
    Xml,
    /// The columnar binary format of this crate.
    Columnar,
}

impl WireFormat {
    /// Stable lowercase name (`"xml"` / `"columnar"`), as used by bench
    /// arguments and reports.
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Xml => "xml",
            WireFormat::Columnar => "columnar",
        }
    }

    /// Parses [`WireFormat::name`] output.
    pub fn parse(s: &str) -> Option<WireFormat> {
        match s {
            "xml" => Some(WireFormat::Xml),
            "columnar" => Some(WireFormat::Columnar),
            _ => None,
        }
    }
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ----------------------------------------------------------------------
// Primitives
// ----------------------------------------------------------------------

/// Appends an LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Appends a length-prefixed UTF-8 string.
fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Appends length-prefixed bytes.
fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_varint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

/// Zig-zag maps signed deltas to small unsigned varints.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Length of the common prefix of two Dewey component slices.
fn common_prefix(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

// Two-bit cell tags; 0 doubles as the null bitmap.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DEWEY: u8 = 2;
const TAG_STR: u8 = 3;

// ----------------------------------------------------------------------
// Encoding
// ----------------------------------------------------------------------

/// Encodes a feed into a fresh frame. [`encode_in_format_into`] is the
/// buffer-reusing form the shipping hot path uses: a transport reuses one
/// buffer across shipments, so framing allocates nothing in steady state.
///
/// Frame layout (all counts LEB128 varints):
///
/// ```text
/// magic            8 bytes  "XDXCOLF3"
/// schema           root element, column count, per column
///                  (element, role byte 0=ID 1=PARENT 2=VALUE, and for an
///                  ID or PARENT column its basis: 0 none, 2b+1 a child of
///                  column b, 2b+2 its parent)
/// schema digest    8 bytes LE, word sum of the schema section
/// row count        varint
/// token dict       token count, then length-prefixed tokens in
///                  first-occurrence order (tokens never contain ' ')
/// string table     entry count, then per distinct cell string its
///                  token count and token indices (tokens are the
///                  string split on ' ', joined back with ' ' on decode)
/// per column       the columns that are no parent of their basis in
///                  column order, then those that are; each
///                  ceil(rows/4) tag bytes (2 bits/cell), then, with a
///                  basis, its exception mark (length-prefixed varint
///                  gaps: the first exception's row, then each next row
///                  less the last less 1), then the non-null cell
///                  payloads in row order:
///                    Int    zig-zag varint delta vs. previous Int
///                    Dewey  derived: a child's last component, a
///                           parent's nothing; an exception, or any
///                           cell of a column without a basis: lcp with
///                           the previous explicit Dewey, suffix length,
///                           zig-zag delta on the diverging component,
///                           raw varints for the rest
///                    Str    varint string-table index
/// checksum         8 bytes LE, word sum of everything above
/// ```
///
/// A column's basis is fixed by its first non-null cell: `PARENT`
/// against its element's ID column, an ID column against the earlier ID
/// column holding its parent. A Dewey cell derives when its basis cell
/// is a Dewey other than the root and the relation holds; any other
/// Dewey cell of the column is an exception.
pub fn encode_feed(feed: &Feed) -> Vec<u8> {
    let mut buf = Vec::new();
    append_columnar_frame(&mut buf, &feed.schema, feed.rows.slice(..));
    buf
}

/// A dictionary key: a cell string's or a token's bytes and their hash,
/// computed once when the bytes are first read. The maps compare the hash
/// before the bytes, and [`KeyHasher`] hands the stored hash to the
/// table, so neither a probe nor a table's growth reads the bytes again.
///
/// The hash is FxHash's (rustc's hasher, with its 2.x multiplier and
/// final rotation): one add-multiply per 8-byte word, seeded with the
/// length. Equal bytes give an equal key wherever they were cut from.
/// FxHash collisions are easy to construct, so this assumes the document
/// text is trusted: only the sender hashes, only the rows it ships of its
/// own document, and text crafted to collide slows that sender's own
/// encode, nothing else. The decoder hashes nothing, so a crafted frame
/// cannot flood a table.
#[derive(Clone, Copy)]
struct Key<'a> {
    hash: u64,
    bytes: &'a [u8],
}

impl<'a> Key<'a> {
    /// The key of `bytes`. Bytes shorter than a word are read in two
    /// overlapping halves (or three single bytes below four), longer ones
    /// word by word with an overlapping last word: no byte is copied to pad
    /// a word.
    fn new(bytes: &'a [u8]) -> Key<'a> {
        let fx = |h: u64, word: u64| h.wrapping_add(word).wrapping_mul(0xf135_7aea_2e62_a9c5);
        let n = bytes.len();
        let half = |i: usize| {
            u64::from(u32::from_le_bytes(
                bytes[i..i + 4].try_into().expect("4 bytes"),
            ))
        };
        let mut h = n as u64;
        let last = match n {
            0 => 0,
            1..=3 => {
                u64::from(bytes[0]) | u64::from(bytes[n / 2]) << 8 | u64::from(bytes[n - 1]) << 16
            }
            4..=8 => half(0) | half(n - 4) << 32,
            _ => {
                for w in bytes[..n - 1].chunks_exact(8) {
                    h = fx(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
                }
                u64::from_le_bytes(bytes[n - 8..].try_into().expect("8 bytes"))
            }
        };
        Key {
            hash: fx(h, last).rotate_left(26),
            bytes,
        }
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The hasher of the dictionaries' maps: a [`Key`] writes the hash it
/// carries, and this passes it through.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a dictionary key writes its hash, never bytes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<'a> = HashMap<Key<'a>, u32, BuildHasherDefault<KeyHasher>>;

/// Cuts `s` at its spaces into `tokens` (cleared first), each keyed.
/// Spaces are found eight bytes at a time: a word XORed with eight spaces
/// has a zero byte where `s` has a space, and the high bit of exactly
/// those bytes survives the mask (no borrow crosses a byte).
fn tokenize<'a>(s: &'a [u8], tokens: &mut Vec<Key<'a>>) {
    const SPACES: u64 = u64::from_le_bytes([b' '; 8]);
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    tokens.clear();
    let mut start = 0;
    let mut cut = |i: usize| {
        tokens.push(Key::new(&s[start..i]));
        start = i + 1;
    };
    let mut words = s.chunks_exact(8);
    let mut base = 0;
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("8-byte chunk")) ^ SPACES;
        let mut spaces = !(((x & LOW7).wrapping_add(LOW7)) | x | LOW7);
        while spaces != 0 {
            cut(base + spaces.trailing_zeros() as usize / 8);
            spaces &= spaces - 1;
        }
        base += 8;
    }
    for (i, &b) in words.remainder().iter().enumerate() {
        if b == b' ' {
            cut(base + i);
        }
    }
    tokens.push(Key::new(&s[start..]));
}

/// The two-level string dictionaries of one frame, filled in
/// first-occurrence row-major order: distinct cell strings index a string
/// table, whose entries are token sequences over a token dictionary.
/// `split(' ')` / `join(" ")` is an exact inverse pair for every string
/// (empty tokens encode runs of spaces), so reconstruction is byte-exact.
///
/// Strings are keyed by their bytes: a token is a run of a cell's bytes
/// between spaces, and a space is ASCII, so every token is whole UTF-8 and
/// nothing here re-reads a cell as `str`.
struct Dictionary<'a> {
    token_ids: KeyMap<'a>,
    /// The token dictionary's entries, encoded as they are discovered.
    tokens: Vec<u8>,
    string_ids: KeyMap<'a>,
    /// The string table's entries, encoded as they are discovered.
    table: Vec<u8>,
    /// The keyed tokens of the new string at hand.
    cell_tokens: Vec<Key<'a>>,
}

impl<'a> Dictionary<'a> {
    /// Dictionaries for a frame of `cells` value cells, the ones a
    /// fragment feed keeps its strings in: the string map cannot outgrow
    /// them, the token map starts at the same size (a one-token string
    /// apiece in the `iname` and `mailbox` shape, far fewer in
    /// `idescription`'s) and grows past it only if it must, and an entry
    /// of either buffer takes at least two bytes.
    fn for_cells(cells: usize) -> Dictionary<'a> {
        Dictionary {
            token_ids: KeyMap::with_capacity_and_hasher(cells, Default::default()),
            tokens: Vec::with_capacity(2 * cells),
            string_ids: KeyMap::with_capacity_and_hasher(cells, Default::default()),
            table: Vec::with_capacity(2 * cells),
            cell_tokens: Vec::new(),
        }
    }

    /// The string-table index of `s`, adding it on first sight: one hash
    /// and one probe per cell, and for a new string one space scan and
    /// one hash and probe per token. Its entry (token count, then token
    /// ids) is written as its tokens are numbered.
    fn string_id(&mut self, s: &'a [u8]) -> u32 {
        let next = self.string_ids.len() as u32;
        let id = *self.string_ids.entry(Key::new(s)).or_insert(next);
        if id == next {
            tokenize(s, &mut self.cell_tokens);
            put_varint(&mut self.table, self.cell_tokens.len() as u64);
            for &tok in &self.cell_tokens {
                let next = self.token_ids.len() as u32;
                let t = *self.token_ids.entry(tok).or_insert(next);
                if t == next {
                    put_bytes(&mut self.tokens, tok.bytes);
                }
                put_varint(&mut self.table, u64::from(t));
            }
        }
        id
    }

    /// Appends the token dictionary and the string table.
    fn append_to(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.token_ids.len() as u64);
        buf.extend_from_slice(&self.tokens);
        put_varint(buf, self.string_ids.len() as u64);
        buf.extend_from_slice(&self.table);
    }
}

/// How the cells of a Dewey column derive from another column of their
/// row, the column's *basis*: fixed once per frame by the first row in
/// which the column is non-null ([`choose_basis`]) and named in the
/// schema section. An outer-union row carries one instance's path, so
/// most ids are another id of the row plus one component, and `PARENT`
/// is the row's id minus one.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Basis {
    /// Every cell coded against the column's previous explicit cell.
    None,
    /// The basis cell plus one component: a cell costs that component.
    Child(usize),
    /// The basis cell minus its last component: a cell costs nothing.
    Parent(usize),
}

impl Basis {
    /// The basis column, if any.
    fn column(self) -> Option<usize> {
        match self {
            Basis::None => None,
            Basis::Child(b) | Basis::Parent(b) => Some(b),
        }
    }

    /// The schema section's varint: 0 for none, `2b + 1` for a child of
    /// column `b`, `2b + 2` for its parent.
    fn code(self) -> u64 {
        match self {
            Basis::None => 0,
            Basis::Child(b) => 2 * b as u64 + 1,
            Basis::Parent(b) => 2 * b as u64 + 2,
        }
    }

    /// Reads [`Basis::code`] back.
    fn from_code(code: u64) -> Result<Basis> {
        let Some(pair) = code.checked_sub(1) else {
            return Ok(Basis::None);
        };
        let b = usize::try_from(pair / 2).map_err(|_| Error::decode("dewey basis out of range"))?;
        Ok(if pair % 2 == 0 {
            Basis::Child(b)
        } else {
            Basis::Parent(b)
        })
    }

    /// Whether `d` derives from the basis cell `base`, which must not be
    /// the root: a child is one component deeper, a parent one shallower.
    fn derives(self, base: &[u32], d: &[u32]) -> bool {
        match self {
            Basis::None => false,
            Basis::Child(_) => !base.is_empty() && d.len() == base.len() + 1 && d.starts_with(base),
            Basis::Parent(_) => base.split_last().is_some_and(|(_, up)| up == d),
        }
    }
}

/// The basis of column `c` of `schema`, chosen from `row`, the first row
/// in which the column is non-null: `PARENT` derives from its element's
/// `NodeId` column, a `NodeId` column from the `NodeId` column before it
/// that holds its parent (ids are unique per node, and pre-order puts the
/// parent earlier) — each only if this first cell derives from it. So a
/// child's basis comes before it and a parent's basis is a child or has
/// none, which is the order the column sections are written in.
fn choose_basis<'a, R: Row<'a>>(schema: &FeedSchema, c: usize, row: R) -> Basis {
    let Value::Dewey(d) = row.cell(c) else {
        return Basis::None;
    };
    let fits = |basis: &Basis| {
        basis
            .column()
            .and_then(|b| row.cell(b).as_dewey())
            .is_some_and(|base| basis.derives(base.as_slice(), d.as_slice()))
    };
    let column = &schema.columns[c];
    let found = match column.role {
        ColRole::ParentRef => schema
            .col(&column.element, ColRole::NodeId)
            .map(Basis::Parent)
            .filter(fits),
        ColRole::NodeId => (0..c)
            .filter(|&b| schema.columns[b].role == ColRole::NodeId)
            .map(Basis::Child)
            .find(fits),
        ColRole::Value => None,
    };
    found.unwrap_or(Basis::None)
}

/// Writes `v` as an LEB128 varint at `buf[at..]` and returns where it
/// ends.
fn varint_at(buf: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    buf[at] = v as u8;
    at + 1
}

/// Appends an explicit Dewey cell `d` coded against `prev`: the lcp, the
/// suffix length, a zig-zag delta on the diverging component and the
/// rest raw. A suffix of up to five components (every inline id) is
/// gathered on the stack and appended with one copy.
fn put_dewey(buf: &mut Vec<u8>, prev: &[u32], d: &[u32]) {
    let lcp = common_prefix(prev, d);
    let rest = &d[lcp..];
    // Three varints of at most 10 bytes and four of at most 5.
    let mut cell = [0u8; 50];
    let mut len = varint_at(&mut cell, 0, lcp as u64);
    len = varint_at(&mut cell, len, rest.len() as u64);
    let Some((&first, more)) = rest.split_first() else {
        buf.extend_from_slice(&cell[..len]);
        return;
    };
    let base = prev.get(lcp).copied().unwrap_or(0);
    len = varint_at(&mut cell, len, zigzag(first as i64 - base as i64));
    let (inline, spilled) = more.split_at(more.len().min(4));
    for &c in inline {
        len = varint_at(&mut cell, len, u64::from(c));
    }
    buf.extend_from_slice(&cell[..len]);
    for &c in spilled {
        put_varint(buf, u64::from(c));
    }
}

/// One column as the row walk appends to it: its tag bytes, then its
/// payload; with the delta bases of its `Int` and explicit Dewey cells,
/// its basis, and the exception mark of a column that has one.
struct Column<'a> {
    bytes: Vec<u8>,
    prev_int: i64,
    prev_dewey: &'a [u32],
    basis: Basis,
    /// True until the basis is chosen, at the column's first non-null
    /// cell; never for a value column.
    open: bool,
    /// The rows of the Dewey cells not derived from the basis, as gaps:
    /// the first row, then each next row less the last one less 1.
    marks: Vec<u8>,
    /// The row after the last exception.
    next_mark: usize,
}

impl<'a> Column<'a> {
    /// Appends row `i`'s cell `v` (strings through `dict`, derived ids
    /// against their basis cell in `row`) and returns its tag.
    fn push<R: Row<'a>>(
        &mut self,
        i: usize,
        v: &'a Value,
        row: R,
        dict: &mut Dictionary<'a>,
    ) -> u8 {
        match v {
            Value::Null => TAG_NULL,
            Value::Int(i) => {
                put_varint(&mut self.bytes, zigzag(i.wrapping_sub(self.prev_int)));
                self.prev_int = *i;
                TAG_INT
            }
            Value::Dewey(d) => {
                let d = d.as_slice();
                let basis = self.basis;
                let base = basis.column().and_then(|b| row.cell(b).as_dewey());
                if base.is_some_and(|base| basis.derives(base.as_slice(), d)) {
                    if let Basis::Child(_) = basis {
                        put_varint(&mut self.bytes, u64::from(d[d.len() - 1]));
                    }
                } else {
                    if basis != Basis::None {
                        put_varint(&mut self.marks, (i - self.next_mark) as u64);
                        self.next_mark = i + 1;
                    }
                    put_dewey(&mut self.bytes, self.prev_dewey, d);
                    self.prev_dewey = d;
                }
                TAG_DEWEY
            }
            Value::Str(s) => {
                put_varint(&mut self.bytes, u64::from(dict.string_id(s.as_bytes())));
                TAG_STR
            }
        }
    }
}

/// The columnar encoder proper: appends one frame to `buf`. A batch of a
/// larger feed encodes from where its rows sit, without being copied
/// into a feed of its own first, and the parts of a container land one
/// after another in the buffer the message ships from.
///
/// One row-major walk appends each cell's tag and payload to its
/// column's buffer, fixes each Dewey column's basis at its first non-null
/// cell and assigns dictionary ids as strings are first seen; the schema
/// section, the dictionaries and then the columns are copied out behind
/// it.
fn append_columnar_frame(buf: &mut Vec<u8>, schema: &FeedSchema, rows: RowSlice<'_>) {
    let frame_start = buf.len();
    buf.extend_from_slice(COLUMNAR_MAGIC);

    let tag_len = rows.len().div_ceil(4);
    // Room for the tags and the one payload byte a non-null cell costs at
    // least; a column grows past that as its cells need.
    let mut columns: Vec<Column<'_>> = schema
        .columns
        .iter()
        .map(|c| {
            let mut bytes = Vec::with_capacity(tag_len + rows.len());
            bytes.resize(tag_len, 0);
            Column {
                bytes,
                prev_int: 0,
                prev_dewey: &[],
                basis: Basis::None,
                open: c.role != ColRole::Value,
                marks: Vec::new(),
                next_mark: 0,
            }
        })
        .collect();
    let strings = schema
        .columns
        .iter()
        .filter(|c| c.role == ColRole::Value)
        .count();
    let mut dict = Dictionary::for_cells(rows.len() * strings);
    rows.read(ColumnarRows {
        schema,
        columns: &mut columns,
        dict: &mut dict,
    });

    // Schema section + digest.
    let schema_start = buf.len();
    put_str(buf, &schema.root_element);
    put_varint(buf, schema.columns.len() as u64);
    for (c, col) in schema.columns.iter().zip(&columns) {
        put_str(buf, &c.element);
        buf.push(match c.role {
            ColRole::NodeId => 0,
            ColRole::ParentRef => 1,
            ColRole::Value => 2,
        });
        if c.role != ColRole::Value {
            put_varint(buf, col.basis.code());
        }
    }
    let digest = word_sum(&buf[schema_start..]);
    buf.extend_from_slice(&digest.to_le_bytes());

    put_varint(buf, rows.len() as u64);
    dict.append_to(buf);
    // Every column whose cells are not parents of their basis first, in
    // column order, then those that are: a basis is written before the
    // cells derived from it.
    for parents in [false, true] {
        for col in &columns {
            if matches!(col.basis, Basis::Parent(_)) != parents {
                continue;
            }
            buf.extend_from_slice(&col.bytes[..tag_len]);
            if col.basis != Basis::None {
                put_bytes(buf, &col.marks);
            }
            buf.extend_from_slice(&col.bytes[tag_len..]);
        }
    }

    let sum = word_sum(&buf[frame_start..]);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// The columnar encoder's row walk: each cell's tag and payload onto its
/// column, read where the rows sit.
struct ColumnarRows<'c, 'a> {
    schema: &'c FeedSchema,
    columns: &'c mut [Column<'a>],
    dict: &'c mut Dictionary<'a>,
}

impl<'a> ReadRows<'a> for ColumnarRows<'_, 'a> {
    type Out = ();
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) {
        for i in 0..len {
            let (byte, shift) = (i / 4, (i % 4) * 2);
            let r = row(i);
            for (c, (v, col)) in r.cells().zip(self.columns.iter_mut()).enumerate() {
                if col.open && !v.is_null() {
                    col.basis = choose_basis(self.schema, c, r);
                    col.open = false;
                }
                let tag = col.push(i, v, r, self.dict);
                col.bytes[byte] |= tag << shift;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Decoding
// ----------------------------------------------------------------------

/// True when `bytes` starts with the columnar frame magic. XML-text
/// feeds start with `#feed`, so one sniff routes a received body to the
/// right decoder.
pub fn is_columnar(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..8] == COLUMNAR_MAGIC
}

/// Bounds-checked cursor over a frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(Error::decode(format!("truncated frame reading {what}")));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn varint(&mut self, what: &str) -> Result<u64> {
        // Most varints in a frame fit one byte: small deltas, lengths,
        // dictionary indices.
        if let Some(&b) = self.buf.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.take(1, what)?[0];
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                // Reject non-canonical overlong encodings in the last
                // (tenth) byte, which would silently drop high bits.
                if shift == 63 && b > 1 {
                    break;
                }
                return Ok(v);
            }
        }
        Err(Error::decode(format!("overlong varint in {what}")))
    }

    /// A varint that names a count of items each at least `unit` bytes
    /// long; rejected when it could not possibly fit the remaining input.
    fn count(&mut self, unit: usize, what: &str) -> Result<usize> {
        let n = self.varint(what)?;
        if n > (self.remaining() / unit.max(1)) as u64 {
            return Err(Error::decode(format!("impossible {what} count {n}")));
        }
        Ok(n as usize)
    }

    fn u64_le(&mut self, what: &str) -> Result<u64> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// A length-prefixed UTF-8 string, borrowed from the frame.
    fn str(&mut self, what: &str) -> Result<&'a str> {
        let len = self.count(1, what)?;
        std::str::from_utf8(self.take(len, what)?)
            .map_err(|_| Error::decode(format!("invalid UTF-8 in {what}")))
    }

    /// The next row of an exception mark, `from` or after it; `None` at
    /// the mark's end.
    fn next_mark(&mut self, from: usize) -> Result<Option<usize>> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        let gap = self.varint("exception mark")?;
        usize::try_from(gap)
            .ok()
            .and_then(|gap| from.checked_add(gap))
            .map(Some)
            .ok_or_else(|| Error::decode("exception mark out of range"))
    }

    fn string(&mut self, what: &str) -> Result<String> {
        self.str(what).map(str::to_owned)
    }
}

/// Refuses a schema section whose bases the column order cannot decode:
/// a basis out of range, of a value column, the column itself, or not
/// decoded before the column (a child's basis must come before it, a
/// parent's must not be a parent itself), which every cycle is.
fn check_bases(columns: &[FeedColumn], bases: &[Basis]) -> Result<()> {
    for (c, basis) in bases.iter().enumerate() {
        let Some(b) = basis.column() else { continue };
        let Some(of) = columns.get(b) else {
            return Err(Error::decode(format!("dewey basis {b} out of range")));
        };
        if of.role == ColRole::Value {
            return Err(Error::decode("dewey basis is a value column"));
        }
        if b == c {
            return Err(Error::decode("dewey basis is the column itself"));
        }
        let first_pass = !matches!(bases[b], Basis::Parent(_));
        if !first_pass || (matches!(basis, Basis::Child(_)) && b > c) {
            return Err(Error::decode(
                "dewey basis is not decoded before its column",
            ));
        }
    }
    Ok(())
}

/// Decodes a columnar frame back into a [`Feed`]. The trailing checksum
/// is verified before any parsing: a frame damaged anywhere — payload,
/// schema, header, the checksum itself — fails loudly with a decode
/// error and is never accepted.
pub fn decode_feed(bytes: &[u8]) -> Result<Feed> {
    if !is_columnar(bytes) {
        return Err(Error::decode("missing columnar frame magic"));
    }
    if bytes.len() < COLUMNAR_MAGIC.len() + 8 {
        return Err(Error::decode(
            "columnar frame shorter than magic + checksum",
        ));
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    let expected = u64::from_le_bytes(sum.try_into().expect("8-byte slice"));
    if word_sum(body) != expected {
        return Err(Error::decode(
            "checksum mismatch: columnar frame corrupted in transit",
        ));
    }

    let mut r = Reader {
        buf: &body[COLUMNAR_MAGIC.len()..],
        pos: 0,
    };

    // Schema section, re-digested over the exact bytes read.
    let schema_start = r.pos;
    let root = r.string("root element")?;
    let ncols = r.count(2, "column")?;
    let mut columns = Vec::with_capacity(ncols);
    let mut bases = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let element = r.string("column element")?;
        let role = match r.take(1, "column role")?[0] {
            0 => ColRole::NodeId,
            1 => ColRole::ParentRef,
            2 => ColRole::Value,
            other => return Err(Error::decode(format!("bad column role byte {other}"))),
        };
        bases.push(match role {
            ColRole::Value => Basis::None,
            _ => Basis::from_code(r.varint("dewey basis")?)?,
        });
        columns.push(FeedColumn::new(element, role));
    }
    check_bases(&columns, &bases)?;
    let digest = word_sum(&r.buf[schema_start..r.pos]);
    if r.u64_le("schema digest")? != digest {
        return Err(Error::decode("schema digest mismatch"));
    }

    let rows = r.varint("row count")?;
    // Each row costs at least ceil(1/4) tag byte per column; arity-zero
    // feeds have no such floor, so they get an explicit cap instead.
    if ncols == 0 {
        if rows > MAX_ZERO_ARITY_ROWS {
            return Err(Error::decode(format!("implausible row count {rows}")));
        }
    } else {
        let tag_bytes = rows.div_ceil(4).checked_mul(ncols as u64);
        if tag_bytes.is_none_or(|b| b > r.remaining() as u64) {
            return Err(Error::decode(format!("impossible row count {rows}")));
        }
    }
    let rows = rows as usize;

    // Tokens borrow from the verified frame. The string table is one
    // arena per frame and its entries are ranges into it, so a string cell
    // is one copy out of the arena: into the cell up to 22 bytes, into one
    // exact-size block past that. An entry is written as its tokens with a
    // leading ' ' apiece, its range skipping the first.
    let token_len = r.count(1, "token dictionary")?;
    let mut tokens = Vec::with_capacity(token_len);
    for _ in 0..token_len {
        tokens.push(r.str("token")?);
    }
    let table_len = r.count(1, "string table")?;
    let mut arena = Vec::new();
    let mut dict = Vec::with_capacity(table_len);
    for _ in 0..table_len {
        let n = r.count(1, "string tokens")?;
        let start = arena.len();
        for _ in 0..n {
            let idx = r.varint("token index")? as usize;
            let tok = tokens
                .get(idx)
                .ok_or_else(|| Error::decode(format!("token index {idx} out of range")))?;
            arena.push(b' ');
            arena.extend_from_slice(tok.as_bytes());
        }
        dict.push(start + usize::from(n > 0)..arena.len());
    }
    // Whole tokens and spaces: always UTF-8, checked once per frame.
    let arena =
        String::from_utf8(arena).map_err(|_| Error::decode("invalid UTF-8 in string table"))?;

    let mut table: Vec<Vec<Value>> = (0..rows).map(|_| vec![Value::Null; ncols]).collect();
    // The encoder's column order: the parents of their basis last.
    for parents in [false, true] {
        for (col, &basis) in bases.iter().enumerate() {
            if matches!(basis, Basis::Parent(_)) != parents {
                continue;
            }
            let tags = r.take(rows.div_ceil(4), "cell tags")?;
            // The rows of the explicit Dewey cells of a column with a
            // basis, as gaps; every other Dewey cell is derived.
            let mut marks = Reader {
                buf: if basis == Basis::None {
                    &[]
                } else {
                    let len = r.count(1, "exception mark")?;
                    r.take(len, "exception mark")?
                },
                pos: 0,
            };
            let mut next_mark = marks.next_mark(0)?;
            let mut prev_int: i64 = 0;
            let mut prev_dewey: Vec<u32> = Vec::new();
            for i in 0..rows {
                let tag = (tags[i / 4] >> ((i % 4) * 2)) & 0b11;
                let explicit = next_mark == Some(i);
                if explicit {
                    if tag != TAG_DEWEY {
                        return Err(Error::decode("exception mark on a cell that is no dewey"));
                    }
                    next_mark = marks.next_mark(i + 1)?;
                }
                let derived_from = basis.column().filter(|_| !explicit);
                table[i][col] = match (tag, derived_from) {
                    (TAG_NULL, _) => Value::Null,
                    (TAG_INT, _) => {
                        let delta = unzigzag(r.varint("int cell")?);
                        prev_int = prev_int.wrapping_add(delta);
                        Value::Int(prev_int)
                    }
                    (TAG_DEWEY, Some(b)) => {
                        let base = match table[i][b].as_dewey() {
                            Some(base) if base.depth() > 0 => base,
                            _ => return Err(Error::decode("derived dewey cell on no dewey basis")),
                        };
                        Value::Dewey(match basis {
                            Basis::Child(_) => {
                                let k = r.varint("dewey child")?;
                                base.child(
                                    u32::try_from(k).map_err(|_| {
                                        Error::decode("dewey component out of range")
                                    })?,
                                )
                            }
                            _ => base.parent().expect("a non-root basis has a parent"),
                        })
                    }
                    (TAG_DEWEY, None) => {
                        let lcp = r.varint("dewey prefix")? as usize;
                        if lcp > prev_dewey.len() {
                            return Err(Error::decode("dewey prefix longer than predecessor"));
                        }
                        let rest = r.count(1, "dewey suffix")?;
                        let base = prev_dewey.get(lcp).copied().unwrap_or(0);
                        prev_dewey.truncate(lcp);
                        if rest > 0 {
                            let delta = unzigzag(r.varint("dewey component")?);
                            let first = (base as i64).wrapping_add(delta);
                            let first = u32::try_from(first)
                                .map_err(|_| Error::decode("dewey component out of range"))?;
                            prev_dewey.push(first);
                            for _ in 1..rest {
                                let c = r.varint("dewey component")?;
                                let c = u32::try_from(c)
                                    .map_err(|_| Error::decode("dewey component out of range"))?;
                                prev_dewey.push(c);
                            }
                        }
                        Value::Dewey(Dewey::from(&prev_dewey[..]))
                    }
                    _ => {
                        let idx = r.varint("string cell")? as usize;
                        let s = dict.get(idx).ok_or_else(|| {
                            Error::decode(format!("string-table index {idx} out of range"))
                        })?;
                        Value::Str(arena[s.clone()].into())
                    }
                };
            }
            if next_mark.is_some() {
                return Err(Error::decode("exception mark past the last row"));
            }
        }
    }
    if r.remaining() != 0 {
        return Err(Error::decode(format!(
            "{} trailing bytes after last column",
            r.remaining()
        )));
    }

    let mut feed = Feed::new(FeedSchema::new(root, columns));
    feed.rows = table.into();
    Ok(feed)
}

/// Encodes `feed` in the given format into `buf` (clearing it first) and
/// returns the frame length — the one call sites use so the format stays
/// a value, not a code path.
pub fn encode_in_format_into(buf: &mut Vec<u8>, feed: &Feed, format: WireFormat) -> usize {
    encode_rows_in_format_into(buf, &feed.schema, feed.rows.slice(..), format)
}

/// [`encode_in_format_into`] over a schema and a run of rows — what a
/// ring slot naming a row range of a cross feed encodes from.
pub fn encode_rows_in_format_into(
    buf: &mut Vec<u8>,
    schema: &FeedSchema,
    rows: RowSlice<'_>,
    format: WireFormat,
) -> usize {
    buf.clear();
    append_frame(buf, schema, rows, format);
    buf.len()
}

/// Appends one feed frame in `format` to `buf`.
fn append_frame(buf: &mut Vec<u8>, schema: &FeedSchema, rows: RowSlice<'_>, format: WireFormat) {
    match format {
        WireFormat::Xml => append_wire(buf, schema, rows),
        WireFormat::Columnar => append_columnar_frame(buf, schema, rows),
    }
}

/// Decodes a received body in whichever format it sniffs as — columnar
/// frames by magic, everything else as XML text.
pub fn decode_any(body: &[u8]) -> Result<Feed> {
    if is_patch(body) {
        return Err(Error::decode("body is a Patch frame, not a feed"));
    }
    if is_container(body) {
        return Err(Error::decode("body is a multi-part container, not a feed"));
    }
    if is_columnar(body) {
        decode_feed(body)
    } else {
        let text = std::str::from_utf8(body)
            .map_err(|_| Error::decode("feed body is neither columnar nor UTF-8 text"))?;
        Feed::from_sealed_wire(text)
    }
}

// ----------------------------------------------------------------------
// Multi-part containers
// ----------------------------------------------------------------------

/// Body magic of a message carrying several feed frames; distinct in its
/// first bytes from `XDXCOLF`, `XDXPATF` and `#feed` text, so one prefix
/// check still routes every body kind.
pub const CONTAINER_MAGIC: &[u8; 8] = b"XDXMULT1";

/// True when `bytes` starts with the container magic.
pub fn is_container(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..8] == CONTAINER_MAGIC
}

/// One feed frame of a message: a row range of a cross feed under the
/// label that names it to the receiver.
#[derive(Debug, Clone, Copy)]
pub struct FeedPart<'a> {
    /// The shipment label of the part (its region name).
    pub label: &'a str,
    /// The feed's schema.
    pub schema: &'a FeedSchema,
    /// The rows of this part.
    pub rows: RowSlice<'a>,
}

/// Encodes `parts` as one message body into `buf` (clearing it first) and
/// returns the bytes the parts' own frames take — `buf.len()` less the
/// container header, which is framing like the envelope around it.
///
/// One part is that part's bare frame, byte for byte what
/// [`encode_rows_in_format_into`] writes. Several parts are a container
/// (all counts LEB128 varints):
///
/// ```text
/// magic            8 bytes  "XDXMULT1"
/// part count       varint
/// per part         label (length-prefixed), frame length
/// header checksum  8 bytes LE, word sum of everything above
/// frames           each part exactly as `encode_rows_in_format_into`
///                  writes it, back to back, own `#sum`/checksum intact
/// ```
pub fn encode_parts_into(buf: &mut Vec<u8>, parts: &[FeedPart<'_>], format: WireFormat) -> usize {
    if let [only] = parts {
        return encode_rows_in_format_into(buf, only.schema, only.rows, format);
    }
    buf.clear();
    let mut header = CONTAINER_MAGIC.to_vec();
    put_varint(&mut header, parts.len() as u64);
    for part in parts {
        let start = buf.len();
        append_frame(buf, part.schema, part.rows, format);
        put_str(&mut header, part.label);
        put_varint(&mut header, (buf.len() - start) as u64);
    }
    let sum = word_sum(&header);
    header.extend_from_slice(&sum.to_le_bytes());
    let frames = buf.len();
    // The header is sized by what follows it: one move of the frames,
    // against an encode that cost two orders more per byte.
    buf.splice(0..0, header);
    frames
}

/// The parts of a received message, in order, each under the label its
/// container gave it.
pub type DecodedParts = Vec<(Option<String>, Feed)>;

/// Decodes a received message body into its parts, sniffing like
/// [`decode_any`]: a container yields each part under its label, any
/// other body is one bare frame (label `None` — the shipment names it).
/// The container header is checksummed and every length is checked
/// against the bytes that are there: the parts must tile the body
/// exactly, so a truncated, padded or lying container is a decode error,
/// and each part then passes its own format's integrity check.
pub fn decode_parts(body: &[u8]) -> Result<DecodedParts> {
    if !is_container(body) {
        return decode_any(body).map(|feed| vec![(None, feed)]);
    }
    let mut r = Reader {
        buf: body,
        pos: CONTAINER_MAGIC.len(),
    };
    // Each part costs at least a label length and a frame length byte.
    let count = r.count(2, "part")?;
    let mut heads = Vec::with_capacity(count);
    for _ in 0..count {
        heads.push((r.string("part label")?, r.varint("part length")?));
    }
    let digest = word_sum(&body[..r.pos]);
    if r.u64_le("container checksum")? != digest {
        return Err(Error::decode(
            "checksum mismatch: container header corrupted in transit",
        ));
    }
    let claimed = heads
        .iter()
        .try_fold(0u64, |sum, (_, len)| sum.checked_add(*len));
    if claimed != Some(r.remaining() as u64) {
        return Err(Error::decode(format!(
            "part lengths do not tile the {} body bytes",
            r.remaining()
        )));
    }
    let mut parts = Vec::with_capacity(count);
    for (label, len) in heads {
        let feed = decode_any(r.take(len as usize, "part frame")?)?;
        parts.push((Some(label), feed));
    }
    Ok(parts)
}

// ----------------------------------------------------------------------
// Patch frames
// ----------------------------------------------------------------------

/// True when `bytes` starts with the `Patch` frame magic.
pub fn is_patch(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..8] == PATCH_MAGIC
}

/// Encodes a [`DeltaPatch`] into a fresh frame; see
/// [`encode_patch_into`].
pub fn encode_patch(patch: &DeltaPatch, format: WireFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_patch_into(&mut buf, patch, format);
    buf
}

/// Encodes a [`DeltaPatch`] into `buf` (clearing it first) and returns
/// the frame length. Step payloads are embedded as length-prefixed feed
/// frames in the *negotiated* wire format, exactly like a full shipment
/// — a columnar link's patch payloads get the column encoders and
/// two-level dictionary for free, an XML-text link stays debuggable.
///
/// Frame layout (all counts LEB128 varints):
///
/// ```text
/// magic            8 bytes  "XDXPATF1"
/// base version     varint   precondition: target must hold this
/// head version     varint   version after a successful apply
/// table count      varint
/// per table        name, step count, then per step
///                  (kind byte, key depth + components, payload rows),
///                  then payload-frame length + the embedded feed frame
/// checksum         8 bytes LE, word sum of everything above
/// ```
pub fn encode_patch_into(buf: &mut Vec<u8>, patch: &DeltaPatch, format: WireFormat) -> usize {
    buf.clear();
    buf.extend_from_slice(PATCH_MAGIC);
    put_varint(buf, patch.base_version);
    put_varint(buf, patch.head_version);
    put_varint(buf, patch.tables.len() as u64);
    for t in &patch.tables {
        put_str(buf, &t.table);
        put_varint(buf, t.steps.len() as u64);
        for s in &t.steps {
            buf.push(s.kind.code());
            put_varint(buf, s.key.depth() as u64);
            for &c in s.key.as_slice() {
                put_varint(buf, u64::from(c));
            }
            put_varint(buf, u64::from(s.rows));
        }
        // The payload frame goes straight into `buf`, its length rotated
        // in front of it.
        let at = buf.len();
        append_frame(buf, &t.payload.schema, t.payload.rows.slice(..), format);
        let frame = buf.len();
        put_varint(buf, (frame - at) as u64);
        let len_bytes = buf.len() - frame;
        buf[at..].rotate_right(len_bytes);
    }
    let sum = word_sum(buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf.len()
}

/// Decodes a `Patch` frame. The trailing checksum is verified before
/// any parsing, so a frame damaged anywhere is rejected *before* the
/// target considers applying it; the embedded payload feeds then pass
/// through their own format decoders (each with its own checksum).
pub fn decode_patch(bytes: &[u8]) -> Result<DeltaPatch> {
    if !is_patch(bytes) {
        return Err(Error::decode("missing patch frame magic"));
    }
    if bytes.len() < PATCH_MAGIC.len() + 8 {
        return Err(Error::decode("patch frame shorter than magic + checksum"));
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    let expected = u64::from_le_bytes(sum.try_into().expect("8-byte slice"));
    if word_sum(body) != expected {
        return Err(Error::decode(
            "checksum mismatch: patch frame corrupted in transit",
        ));
    }
    let mut r = Reader {
        buf: &body[PATCH_MAGIC.len()..],
        pos: 0,
    };
    let base_version = r.varint("base version")?;
    let head_version = r.varint("head version")?;
    // Each table costs at least a name length, a step count and a
    // payload length byte.
    let ntables = r.count(3, "table")?;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let table = r.string("table name")?;
        // Each step costs at least a kind byte, a key depth and a row
        // count byte.
        let nsteps = r.count(3, "step")?;
        let mut steps = Vec::with_capacity(nsteps);
        for _ in 0..nsteps {
            let kind = StepKind::from_code(r.take(1, "step kind")?[0])
                .ok_or_else(|| Error::decode("bad step kind byte"))?;
            let depth = r.count(1, "step key")?;
            let mut key = Vec::with_capacity(depth);
            for _ in 0..depth {
                let c = r.varint("key component")?;
                key.push(
                    u32::try_from(c).map_err(|_| Error::decode("key component out of range"))?,
                );
            }
            let rows = r.varint("step rows")?;
            let rows =
                u32::try_from(rows).map_err(|_| Error::decode("step row count out of range"))?;
            steps.push(PatchStep {
                kind,
                key: Dewey::from(key),
                rows,
            });
        }
        let payload_len = r.count(1, "payload frame")?;
        let payload = decode_any(r.take(payload_len, "payload frame")?)?;
        tables.push(TablePatch {
            table,
            steps,
            payload,
        });
    }
    if r.remaining() != 0 {
        return Err(Error::decode(format!(
            "{} trailing bytes after last table patch",
            r.remaining()
        )));
    }
    Ok(DeltaPatch {
        base_version,
        head_version,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdx_relational::feed::fragment_feed_schema;

    fn sample_feed() -> Feed {
        let schema = fragment_feed_schema(
            "Order",
            &[
                ("Order".to_string(), false),
                ("ServiceName".to_string(), true),
            ],
        );
        let mut f = Feed::new(schema);
        for i in 1..=20u32 {
            f.push_row(vec![
                Value::Dewey(Dewey::from([1])),
                Value::Dewey(Dewey::from([1, i])),
                Value::Dewey(Dewey::from([1, i, 1])),
                Value::Str(if i % 2 == 0 { "local" } else { "long distance" }.into()),
            ])
            .unwrap();
        }
        f
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Equal bytes give an equal key, whichever cell or token they
        /// were cut from, on both sides of the 22 bytes a `Text` holds in
        /// place: a cell keys as its `str`, a token cut from a cell as the
        /// same bytes standing alone in a cell, and a prefix cut at any
        /// byte as its copy. Unequal bytes give unequal keys, and a cell's
        /// tokens are its `split(' ')`.
        #[test]
        fn equal_bytes_give_an_equal_key(
            picks in proptest::collection::vec(0usize..7, 0..=40),
            cut in proptest::prelude::any::<usize>(),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            // '!' is a space plus one: a scan whose borrow crosses a byte
            // reads "x !" as two spaces.
            let s: String = picks.iter().map(|&i| ['a', ' ', 'é', '€', '𝄞', '\n', '!'][i]).collect();
            let text = xdx_relational::Text::from(s.as_str());
            let same = |a: Key<'_>, b: Key<'_>| a.hash == b.hash && a == b;
            let cell = Key::new(text.as_bytes());
            prop_assert!(same(cell, Key::new(s.as_bytes())));
            let mut tokens = Vec::new();
            tokenize(text.as_bytes(), &mut tokens);
            let split: Vec<&[u8]> = s.as_bytes().split(|&b| b == b' ').collect();
            prop_assert_eq!(tokens.iter().map(|t| t.bytes).collect::<Vec<_>>(), split);
            for tok in &tokens {
                let alone = xdx_relational::Text::from(std::str::from_utf8(tok.bytes).unwrap());
                prop_assert!(same(*tok, Key::new(alone.as_bytes())));
            }
            let (head, _) = text.as_bytes().split_at(cut % (s.len() + 1));
            let copy = head.to_vec();
            prop_assert!(same(Key::new(head), Key::new(&copy)));
            prop_assert_eq!(Key::new(head) == cell, head == s.as_bytes());
        }
    }

    #[test]
    fn roundtrips_sample_feed() {
        let f = sample_feed();
        let frame = encode_feed(&f);
        assert!(is_columnar(&frame));
        assert_eq!(decode_feed(&frame).unwrap(), f);
    }

    #[test]
    fn roundtrips_heterogeneous_and_special_cells() {
        let schema = FeedSchema::new("x", vec![FeedColumn::new("x", ColRole::Value)]);
        let mut f = Feed::new(schema);
        for s in ["tab\there", "line\nbreak", "back\\slash", "", "plain", ""] {
            f.push_row(vec![Value::Str(s.into())]).unwrap();
        }
        f.push_row(vec![Value::Null]).unwrap();
        f.push_row(vec![Value::Int(-42)]).unwrap();
        f.push_row(vec![Value::Int(i64::MIN)]).unwrap();
        f.push_row(vec![Value::Int(i64::MAX)]).unwrap();
        f.push_row(vec![Value::Dewey(Dewey::root())]).unwrap();
        f.push_row(vec![Value::Dewey(Dewey::from([u32::MAX, 0, 7]))])
            .unwrap();
        assert_eq!(decode_feed(&encode_feed(&f)).unwrap(), f);
    }

    #[test]
    fn roundtrips_empty_and_zero_arity_feeds() {
        let empty = Feed::new(FeedSchema::new(
            "x",
            vec![FeedColumn::new("x", ColRole::NodeId)],
        ));
        assert_eq!(decode_feed(&encode_feed(&empty)).unwrap(), empty);
        let mut no_cols = Feed::new(FeedSchema::new("x", vec![]));
        no_cols.push_row(vec![]).unwrap();
        no_cols.push_row(vec![]).unwrap();
        assert_eq!(decode_feed(&encode_feed(&no_cols)).unwrap(), no_cols);
    }

    /// A feed shaped like the XMark `ITEM_…` fragment: one row per item,
    /// depth-5 child ids that break the XML `*suffix` chain mid-row, a
    /// constant column, a sentence column over a small vocabulary, and a
    /// mostly-unique label column.
    fn itemlike_feed() -> Feed {
        let vocab = [
            "auction", "vintage", "gilded", "brass", "walnut", "carved", "signed", "rare",
        ];
        let schema = fragment_feed_schema(
            "item",
            &[
                ("item".to_string(), false),
                ("location".to_string(), true),
                ("idescription".to_string(), true),
                ("shipping".to_string(), true),
                ("mailbox".to_string(), true),
            ],
        );
        let mut f = Feed::new(schema);
        for i in 1..=40u32 {
            let item = Dewey::from([1, 1, 1, i]);
            let sentence: Vec<&str> = (0..12)
                .map(|k| vocab[(i as usize * 7 + k * 3) % vocab.len()])
                .collect();
            f.push_row(vec![
                Value::Dewey(Dewey::from([1, 1, 1])),
                Value::Dewey(item.clone()),
                Value::Dewey(item.child(1)),
                Value::Str(["United States", "Ghana", "Kenya", "Egypt"][i as usize % 4].into()),
                Value::Dewey(item.child(2)),
                Value::Str(sentence.join(" ").into()),
                Value::Dewey(item.child(3)),
                Value::Str("Will ship internationally, buyer pays fixed shipping".into()),
                Value::Dewey(item.child(4)),
                Value::Str(format!("mail-{}", i * 37 % 97).into()),
            ])
            .unwrap();
        }
        f
    }

    /// A feed whose strings stress the tokenizer and the dictionaries'
    /// growth: empty and all-space strings, leading, trailing and runs of
    /// spaces, tokens of 0–17 bytes ending in 'é', '€' or '𝄞' at every
    /// offset of an 8-byte word, one token in every sentence, and 2,800
    /// distinct tokens.
    fn tokenizer_feed() -> Feed {
        const EDGES: [&str; 12] = [
            "",
            " ",
            "   ",
            " lead",
            "trail ",
            "  both  ",
            "a  b",
            "1234567é",
            "123456€ x",
            "12345𝄞  ",
            "é€𝄞",
            "12345678 12345678",
        ];
        const CHARS: [&str; 4] = ["a", "é", "€", "𝄞"];
        let schema = fragment_feed_schema(
            "note",
            &[
                ("note".to_string(), false),
                ("text".to_string(), true),
                ("edge".to_string(), true),
            ],
        );
        let mut f = Feed::new(schema);
        for i in 0..700u32 {
            let mut text = String::new();
            if i % 5 == 0 {
                text.push(' ');
            }
            for k in 0..8u32 {
                if k > 0 {
                    text.push_str(if (i + k) % 7 == 0 { "   " } else { " " });
                }
                match k % 4 {
                    0 => text.push_str("lot"),
                    2 => {
                        let len = ((i * 3 + k) % 18) as usize;
                        let c = CHARS[((i + k) % 4) as usize];
                        let pad = len.saturating_sub(c.len());
                        text.push_str(&"x".repeat(pad));
                        if len >= c.len() {
                            text.push_str(c);
                        }
                    }
                    _ => text.push_str(&format!("w{}", i * 4 + k / 2)),
                }
            }
            if i % 3 == 0 {
                text.push(' ');
            }
            let note = Dewey::from([1, i + 1]);
            f.push_row(vec![
                Value::Dewey(Dewey::from([1])),
                Value::Dewey(note.clone()),
                Value::Dewey(note.child(1)),
                Value::Str(text.into()),
                Value::Dewey(note.child(2)),
                Value::Str(EDGES[(i * 5 % 12) as usize].into()),
            ])
            .unwrap();
        }
        f
    }

    #[test]
    fn columnar_halves_xml_text_on_itemlike_feeds() {
        let f = itemlike_feed();
        let xml = f.to_wire().len();
        let columnar = encode_feed(&f).len();
        assert!(
            columnar * 2 <= xml,
            "columnar {columnar}B not ≤ half of XML {xml}B"
        );
        assert_eq!(decode_feed(&encode_feed(&f)).unwrap(), f);
    }

    /// Length and word sum of the frames these feeds encode to, recorded
    /// when `XDXCOLF3` made a derived Dewey cell cost a component or
    /// nothing (first-generation frames took 322, 1907 and 39014 bytes).
    /// Dictionaries number strings and tokens in first-occurrence
    /// row-major order, and a column's basis is fixed by its first
    /// non-null row, so one feed has one frame. The tokenizer feed stresses
    /// the word-at-a-time space scan and the hash-carrying keys.
    #[test]
    fn frames_are_byte_identical_to_the_recorded_ones() {
        let golden = [
            (sample_feed(), (225, 0xc22d_f90f_a1a8_e1ee)),
            (itemlike_feed(), (1343, 0x3370_8d01_11cc_b262)),
            (tokenizer_feed(), (33418, 0x3914_9647_0f2c_aca8)),
        ];
        for (feed, recorded) in golden {
            let mut frame = encode_feed(&feed);
            assert_eq!((frame.len(), word_sum(&frame)), recorded);
            // A row range encodes to the frame of a feed holding just it.
            let batch = Feed {
                schema: feed.schema.clone(),
                rows: feed.rows.slice(3..11).to_rows(),
            };
            frame.clear();
            append_columnar_frame(&mut frame, &feed.schema, feed.rows.slice(3..11));
            assert_eq!(frame, encode_feed(&batch));
        }
    }

    fn parts_of<'a>(feeds: &'a [(&'a str, Feed)]) -> Vec<FeedPart<'a>> {
        feeds
            .iter()
            .map(|(label, feed)| FeedPart {
                label,
                schema: &feed.schema,
                rows: feed.rows.slice(..),
            })
            .collect()
    }

    /// Length and word sum of the container these two feeds pack to, per
    /// wire format: a resumed session replays checkpointed containers, so
    /// the layout is as pinned as a frame's. The text one is as recorded
    /// when every checksum became a word sum; the columnar one was
    /// recorded again for `XDXCOLF3` (2261 bytes before).
    #[test]
    fn containers_are_byte_identical_to_the_recorded_ones() {
        let feeds = [("Order", sample_feed()), ("item", itemlike_feed())];
        let parts = parts_of(&feeds);
        let golden = [
            (WireFormat::Columnar, (1600, 0x4bd9_54b0_5c9a_077c)),
            (WireFormat::Xml, (8855, 0x83db_77ec_59c1_a39d)),
        ];
        let mut buf = Vec::new();
        for (format, recorded) in golden {
            let frames = encode_parts_into(&mut buf, &parts, format);
            assert_eq!((buf.len(), word_sum(&buf)), recorded, "{format}");
            // The header is all a container adds: magic, count, two
            // (label, length) pairs, checksum.
            assert_eq!(buf.len() - frames, 8 + 1 + (6 + 2) + (5 + 2) + 8);
            let back = decode_parts(&buf).unwrap();
            for ((label, feed), (sent, want)) in back.iter().zip(&feeds) {
                assert_eq!((label.as_deref(), feed), (Some(*sent), want));
            }
        }
        // The frames inside are the recorded single frames, untouched.
        encode_parts_into(&mut buf, &parts, WireFormat::Columnar);
        assert!(buf.ends_with(&encode_feed(&feeds[1].1)));
        // One part is no container at all.
        encode_parts_into(&mut buf, &parts[..1], WireFormat::Columnar);
        assert_eq!(buf, encode_feed(&feeds[0].1));
    }

    #[test]
    fn containers_reject_damage_and_lying_lengths() {
        let feeds = [("Order", sample_feed()), ("item", itemlike_feed())];
        let parts = parts_of(&feeds);
        for format in [WireFormat::Xml, WireFormat::Columnar] {
            let mut frame = Vec::new();
            encode_parts_into(&mut frame, &parts, format);
            for i in 0..frame.len() {
                let mut damaged = frame.clone();
                damaged[i] ^= 0x40;
                assert!(
                    decode_parts(&damaged).is_err(),
                    "{format}: flip at byte {i} went undetected"
                );
            }
            for len in 0..frame.len() {
                assert!(
                    decode_parts(&frame[..len]).is_err(),
                    "{format}: truncated at {len}"
                );
            }
            let mut padded = frame.clone();
            padded.push(b'\n');
            assert!(decode_parts(&padded).is_err(), "{format}: trailing byte");
            // A container is not a feed, and does not nest.
            assert!(decode_any(&frame).is_err());
        }
        // A header that moves a byte from one part to the next, with its
        // checksum recomputed: the lengths still tile the body, and the
        // parts' own integrity checks catch the lie.
        let mut buf = Vec::new();
        encode_parts_into(&mut buf, &parts, WireFormat::Columnar);
        let first = encode_feed(&feeds[0].1).len() as u64;
        let second = encode_feed(&feeds[1].1).len() as u64;
        let body = buf.split_off(buf.len() - (first + second) as usize);
        for (a, b) in [(first - 1, second + 1), (first, second - 1), (u64::MAX, 2)] {
            let mut lying = CONTAINER_MAGIC.to_vec();
            put_varint(&mut lying, 2);
            put_str(&mut lying, "Order");
            put_varint(&mut lying, a);
            put_str(&mut lying, "item");
            put_varint(&mut lying, b);
            let sum = word_sum(&lying);
            lying.extend_from_slice(&sum.to_le_bytes());
            lying.extend_from_slice(&body);
            assert!(decode_parts(&lying).is_err(), "lengths {a}, {b}");
        }
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let frame = encode_feed(&sample_feed());
        for i in 0..frame.len() {
            let mut damaged = frame.clone();
            damaged[i] ^= 0x40;
            assert!(
                decode_feed(&damaged).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let frame = encode_feed(&sample_feed());
        for len in 0..frame.len() {
            assert!(decode_feed(&frame[..len]).is_err(), "truncated at {len}");
        }
        assert!(decode_feed(b"").is_err());
        assert!(decode_feed(b"#feed\tx\n").is_err());
        assert!(decode_feed(b"XDXCOLF3").is_err());
    }

    #[test]
    fn reuses_one_buffer_across_encodes() {
        let f = sample_feed();
        let mut buf = Vec::new();
        encode_in_format_into(&mut buf, &f, WireFormat::Columnar);
        assert_eq!(buf, encode_feed(&f));
        let grown = buf.capacity();
        let tiny = Feed::new(f.schema.clone());
        encode_in_format_into(&mut buf, &tiny, WireFormat::Columnar);
        assert_eq!(decode_feed(&buf).unwrap(), tiny);
        assert!(buf.capacity() >= grown, "re-encoding must not shrink");
    }

    #[test]
    fn sniffing_routes_both_formats() {
        let f = sample_feed();
        assert_eq!(decode_any(&encode_feed(&f)).unwrap(), f);
        assert_eq!(decode_any(f.to_wire().as_bytes()).unwrap(), f);
        let mut buf = Vec::new();
        assert_eq!(
            encode_in_format_into(&mut buf, &f, WireFormat::Xml),
            f.to_wire().len()
        );
        assert!(!is_columnar(&buf));
        encode_in_format_into(&mut buf, &f, WireFormat::Columnar);
        assert!(is_columnar(&buf));
    }

    fn sample_patch() -> DeltaPatch {
        let feed = sample_feed();
        let mut payload = Feed::new(feed.schema.clone());
        payload.rows = feed.rows.slice(3..4).to_rows();
        DeltaPatch {
            base_version: 4,
            head_version: 5,
            tables: vec![
                TablePatch {
                    table: "ORDER".into(),
                    steps: vec![
                        PatchStep {
                            kind: StepKind::ReplaceSubtree,
                            key: Dewey::from([1, 4]),
                            rows: 1,
                        },
                        PatchStep {
                            kind: StepKind::DeleteSubtree,
                            key: Dewey::from([1, 9]),
                            rows: 0,
                        },
                    ],
                    payload,
                },
                TablePatch {
                    table: "EMPTY".into(),
                    steps: Vec::new(),
                    payload: Feed::new(sample_feed().schema),
                },
            ],
        }
    }

    #[test]
    fn patch_roundtrips_in_both_formats() {
        let p = sample_patch();
        for format in [WireFormat::Xml, WireFormat::Columnar] {
            let frame = encode_patch(&p, format);
            assert!(is_patch(&frame));
            assert!(!is_columnar(&frame));
            assert_eq!(decode_patch(&frame).unwrap(), p);
        }
        // Empty patch (no tables at all) is a valid frame too.
        let empty = DeltaPatch {
            base_version: 0,
            head_version: 1,
            tables: Vec::new(),
        };
        let frame = encode_patch(&empty, WireFormat::Columnar);
        assert_eq!(decode_patch(&frame).unwrap(), empty);
    }

    #[test]
    fn patch_frames_reject_damage_and_misrouting() {
        let frame = encode_patch(&sample_patch(), WireFormat::Columnar);
        for i in 0..frame.len() {
            let mut damaged = frame.clone();
            damaged[i] ^= 0x20;
            assert!(
                decode_patch(&damaged).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        for len in 0..frame.len() {
            assert!(decode_patch(&frame[..len]).is_err(), "truncated at {len}");
        }
        // A patch frame never decodes as a feed, and vice versa.
        assert!(decode_any(&frame).is_err());
        assert!(decode_patch(&encode_feed(&sample_feed())).is_err());
        assert!(decode_patch(b"#feed\tx\n").is_err());
    }

    /// Every two-bit flip anywhere in a small columnar, text and patch
    /// frame is rejected, as every one in a chunk frame is. This pins the
    /// word step's xorshift: without it a flip in a word's high bits is
    /// carried only upwards, and two such flips in different words can
    /// cancel.
    #[test]
    fn every_two_bit_flip_is_detected() {
        let mut small = Feed::new(sample_feed().schema);
        small.rows = sample_feed().rows.slice(..3).to_rows();
        let mut payload = Feed::new(small.schema.clone());
        payload.rows = small.rows.slice(..1).to_rows();
        let patch = DeltaPatch {
            base_version: 4,
            head_version: 5,
            tables: vec![TablePatch {
                table: "ORDER".into(),
                steps: vec![PatchStep {
                    kind: StepKind::ReplaceSubtree,
                    key: Dewey::from([1, 1]),
                    rows: 1,
                }],
                payload,
            }],
        };
        type Rejects = fn(&[u8]) -> bool;
        let decoders: [(Vec<u8>, Rejects); 3] = [
            (encode_feed(&small), |b| decode_any(b).is_err()),
            (small.to_wire().into_bytes(), |b| decode_any(b).is_err()),
            (encode_patch(&patch, WireFormat::Columnar), |b| {
                decode_patch(b).is_err()
            }),
        ];
        for (frame, rejected) in decoders {
            assert!(frame.len() <= 170, "{} bytes", frame.len());
            let bits = frame.len() * 8;
            let mut damaged = frame.clone();
            for i in 0..bits {
                damaged[i / 8] ^= 1 << (i % 8);
                for j in i + 1..bits {
                    damaged[j / 8] ^= 1 << (j % 8);
                    assert!(
                        rejected(&damaged),
                        "flips at bits {i} and {j} of {frame:?} went undetected"
                    );
                    damaged[j / 8] ^= 1 << (j % 8);
                }
                damaged[i / 8] ^= 1 << (i % 8);
            }
        }
    }

    #[test]
    fn patch_encode_reuses_one_buffer() {
        let p = sample_patch();
        let mut buf = Vec::new();
        let len = encode_patch_into(&mut buf, &p, WireFormat::Xml);
        assert_eq!(len, buf.len());
        assert_eq!(buf, encode_patch(&p, WireFormat::Xml));
        encode_patch_into(&mut buf, &p, WireFormat::Columnar);
        assert_eq!(decode_patch(&buf).unwrap(), p);
    }

    #[test]
    fn format_names_roundtrip() {
        for fmt in [WireFormat::Xml, WireFormat::Columnar] {
            assert_eq!(WireFormat::parse(fmt.name()), Some(fmt));
            assert_eq!(fmt.to_string(), fmt.name());
        }
        assert_eq!(WireFormat::parse("gopher"), None);
        assert_eq!(WireFormat::default(), WireFormat::Xml);
    }
}

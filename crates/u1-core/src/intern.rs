//! Compact interning primitives for the memory-bounded scale path.
//!
//! The paper-scale month (1.29M users, Table 3) dies by a thousand small
//! heap allocations: a `String` per metastore row, a `String` per trace
//! record, a `Box` per node. This module provides the replacements:
//!
//! * [`Name`] — a 24-byte inline string (heap fallback past 22 bytes) for
//!   DTO rows handed across crate boundaries. Derefs to `str`, so existing
//!   call sites keep compiling.
//! * [`Ext`] — a fixed 17-byte, eagerly *sanitized* file extension (the
//!   trace serializer's charset: first 16 ASCII alphanumerics, lowercased),
//!   `Copy`, for the hot trace-record path.
//! * [`NameArena`] / [`NameId`] — a deduplicating string arena storing all
//!   names in one contiguous buffer, addressed by a `u32` id. Used by the
//!   metastore shards so node/volume rows carry 4-byte ids instead of
//!   owned strings.
//! * [`IdArena`] — a dense `u32` index over arbitrary (sparse, strided)
//!   entity ids, mapping each to a slab slot.
//!
//! Every `usize → u32` conversion at an arena boundary is checked
//! ([`to_u32`]): arena exhaustion is a cold `None`, never a truncating
//! cast and never a panic.

use crate::fxhash::FxHashMap;
use serde::{Serialize, SerializeKey, Value};
use std::borrow::Borrow;
use std::fmt;
use std::hash::Hash;
use std::ops::Deref;

/// Checked `usize → u32` for arena indices. `None` means the arena is full
/// (more than `u32::MAX` entries) — callers surface that as a resource
/// error instead of truncating.
#[inline]
pub fn to_u32(n: usize) -> Option<u32> {
    u32::try_from(n).ok()
}

// ---------------------------------------------------------------------------
// Name: inline-or-heap string
// ---------------------------------------------------------------------------

/// Max bytes stored inline. 22 + len byte + discriminant keeps the whole
/// enum at 24 bytes — the same size as an (empty!) `String` header, but
/// with no allocation for the overwhelmingly common short names
/// (`f1234567.jpg`, `Ubuntu One`, `dir42`).
const NAME_INLINE: usize = 22;

/// A small-string-optimized owned name. Short names live inline; longer
/// ones (rename chains like `r12_r7_f99.mp3` can grow unboundedly) fall
/// back to one `Box<str>`. Semantically a `str`: equality, ordering,
/// hashing and display all delegate to the text.
#[derive(Clone)]
pub enum Name {
    /// ≤ `NAME_INLINE` (22) bytes, stored in place.
    Inline { len: u8, buf: [u8; NAME_INLINE] },
    /// Longer names, boxed once.
    Heap(Box<str>),
}

impl Name {
    pub const EMPTY: Name = Name::Inline {
        len: 0,
        buf: [0; NAME_INLINE],
    };

    pub fn new(s: &str) -> Self {
        if s.len() <= NAME_INLINE {
            let mut buf = [0u8; NAME_INLINE];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Name::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            Name::Heap(s.into())
        }
    }

    /// Formats `args` straight into a name, as `format!(..).into()` would,
    /// without building a `String` first when the text fits inline.
    pub fn from_fmt(args: fmt::Arguments<'_>) -> Self {
        let mut w = NameWriter {
            len: 0,
            buf: [0; NAME_INLINE],
            spill: None,
        };
        // `NameWriter` never fails, so neither does `write_fmt`.
        let _ = fmt::Write::write_fmt(&mut w, args);
        match w.spill {
            Some(long) => Name::Heap(long.into_boxed_str()),
            None => Name::Inline {
                len: w.len as u8,
                buf: w.buf,
            },
        }
    }

    pub fn as_str(&self) -> &str {
        match self {
            // Construction copied from a valid &str prefix, so the bytes
            // are valid UTF-8; the checked form keeps this panic-free even
            // if they were not.
            Name::Inline { len, buf } => {
                std::str::from_utf8(&buf[..*len as usize]).unwrap_or_default()
            }
            Name::Heap(s) => s,
        }
    }

    /// True when the text fits inline (no heap allocation happened).
    pub fn is_inline(&self) -> bool {
        matches!(self, Name::Inline { .. })
    }
}

/// [`Name::from_fmt`]'s sink: the inline buffer until the text outgrows
/// it, then one `String`.
struct NameWriter {
    len: usize,
    buf: [u8; NAME_INLINE],
    spill: Option<String>,
}

impl fmt::Write for NameWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if let Some(long) = &mut self.spill {
            long.push_str(s);
        } else if let Some(dst) = self.buf.get_mut(self.len..self.len + s.len()) {
            dst.copy_from_slice(s.as_bytes());
            self.len += s.len();
        } else {
            // The buffer holds whole `&str` pieces, so it is valid UTF-8.
            let head = std::str::from_utf8(&self.buf[..self.len]).unwrap_or_default();
            self.spill = Some([head, s].concat());
        }
        Ok(())
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::EMPTY
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        if s.len() <= NAME_INLINE {
            Name::new(&s)
        } else {
            Name::Heap(s.into_boxed_str())
        }
    }
}

impl From<&Name> for String {
    fn from(n: &Name) -> Self {
        n.as_str().to_string()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl Serialize for Name {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl SerializeKey for Name {
    fn to_key(&self) -> String {
        self.as_str().to_string()
    }
}

// ---------------------------------------------------------------------------
// Ext: fixed-size sanitized extension
// ---------------------------------------------------------------------------

/// Max extension bytes the trace format keeps (`csvline` charset).
const EXT_MAX: usize = 16;

/// A file extension in the trace serializer's canonical form: at most
/// `EXT_MAX` (16) bytes, ASCII alphanumerics only, lowercased. Sanitization
/// happens *once*, at construction, instead of on every serialized line —
/// and the type is `Copy` (17 bytes), so a `storage_done` record's
/// extension lives inline in its `StorageDone` box, not in a heap string of
/// its own.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ext {
    len: u8,
    buf: [u8; EXT_MAX],
}

impl Ext {
    pub const EMPTY: Ext = Ext {
        len: 0,
        buf: [0; EXT_MAX],
    };

    /// Sanitizes `raw` exactly like the trace serializer: keep the first
    /// `EXT_MAX` ASCII alphanumerics (lowercased), drop everything else.
    /// Idempotent, so parsing a serialized extension back through `new`
    /// reproduces it byte-for-byte.
    pub fn new(raw: &str) -> Self {
        Self::from_bytes(raw.as_bytes())
    }

    /// [`Ext::new`] on raw bytes, which need not be UTF-8 (the trace parser
    /// reads logfiles as bytes). Every byte of a multi-byte character is
    /// non-ASCII, so on a `str` this drops exactly the characters a
    /// per-`char` filter drops.
    pub fn from_bytes(raw: &[u8]) -> Self {
        let mut buf = [0u8; EXT_MAX];
        let mut len = 0usize;
        for b in raw {
            if len == EXT_MAX {
                break;
            }
            if b.is_ascii_alphanumeric() {
                buf[len] = b.to_ascii_lowercase();
                len += 1;
            }
        }
        Ext {
            len: len as u8,
            buf,
        }
    }

    pub fn as_str(&self) -> &str {
        // ASCII by construction; the checked form keeps this panic-free.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or_default()
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for Ext {
    fn default() -> Self {
        Ext::EMPTY
    }
}

impl Deref for Ext {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Ext {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Ext {
    fn from(s: &str) -> Self {
        Ext::new(s)
    }
}

impl From<&String> for Ext {
    fn from(s: &String) -> Self {
        Ext::new(s)
    }
}

impl PartialEq<str> for Ext {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Ext {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Ext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Ext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl Serialize for Ext {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl SerializeKey for Ext {
    fn to_key(&self) -> String {
        self.as_str().to_string()
    }
}

// ---------------------------------------------------------------------------
// NameArena: deduplicating string arena
// ---------------------------------------------------------------------------

/// Index of an interned string in a [`NameArena`]. 4 bytes — the whole
/// point: rows store this instead of a 24-byte `String` header plus its
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NameId(u32);

impl NameId {
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Span of one interned string inside the arena buffer, and the next id
/// whose text has the same hash ([`NO_NEXT`] ends the chain).
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
    next: u32,
}

/// End of a hash chain. No id takes this value: the arena is full one id
/// before it.
const NO_NEXT: u32 = u32::MAX;

/// A deduplicating string interner: all text lives in ONE contiguous
/// buffer, each distinct string gets one [`NameId`], and equal strings
/// always intern to the same id (so name equality on the metastore hot
/// paths is a `u32` compare, not a memcmp).
///
/// Interned strings are never freed individually — the arena lives as long
/// as its owner (a metastore shard) and grows monotonically with the set of
/// *distinct* names, which dedup keeps far below the row count.
#[derive(Default)]
pub struct NameArena {
    buf: String,
    spans: Vec<Span>,
    /// FxHash of the string → the newest id with that hash. Older ids with
    /// the same hash chain on through their spans' `next`; a chain is
    /// resolved by comparing the actual text.
    index: FxHashMap<u64, NameId>,
}

impl NameArena {
    pub fn new() -> Self {
        Self::default()
    }

    fn hash_str(s: &str) -> u64 {
        use std::hash::{BuildHasher, Hasher};
        let mut h = crate::fxhash::FxBuildHasher.build_hasher();
        h.write(s.as_bytes());
        h.finish()
    }

    /// Interns `s`, returning its id (existing or new). `None` only when an
    /// arena limit would be exceeded (≥ 2³² − 1 distinct strings or ≥ 4 GiB
    /// of text) — checked, never truncated.
    pub fn intern(&mut self, s: &str) -> Option<NameId> {
        self.intern_hashed(Self::hash_str(s), s)
    }

    fn intern_hashed(&mut self, h: u64, s: &str) -> Option<NameId> {
        if let Some(id) = self.lookup_hashed(h, s) {
            return Some(id);
        }
        let id = to_u32(self.spans.len()).filter(|&id| id != NO_NEXT)?;
        let start = to_u32(self.buf.len())?;
        let len = to_u32(s.len())?;
        // The span end must also fit in u32.
        to_u32(self.buf.len() + s.len())?;
        self.buf.push_str(s);
        let next = self
            .index
            .insert(h, NameId(id))
            .map_or(NO_NEXT, NameId::raw);
        self.spans.push(Span { start, len, next });
        Some(NameId(id))
    }

    /// The id `s` is interned under, if any — a non-inserting probe (the
    /// make-node idempotency check: a name that was never interned cannot
    /// name a live node).
    pub fn lookup(&self, s: &str) -> Option<NameId> {
        self.lookup_hashed(Self::hash_str(s), s)
    }

    fn lookup_hashed(&self, h: u64, s: &str) -> Option<NameId> {
        let mut id = *self.index.get(&h)?;
        loop {
            if self.resolve(id) == s {
                return Some(id);
            }
            match self.spans.get(id.0 as usize)?.next {
                NO_NEXT => return None,
                next => id = NameId(next),
            }
        }
    }

    /// The text behind `id`. Ids from a different arena index arbitrary
    /// text or (out of range) the empty string — callers keep ids and
    /// arenas paired.
    pub fn resolve(&self, id: NameId) -> &str {
        match self.spans.get(id.0 as usize) {
            Some(span) => {
                let start = span.start as usize;
                let end = start + span.len as usize;
                self.buf.get(start..end).unwrap_or_default()
            }
            None => "",
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total text bytes held (the dedup'd footprint).
    pub fn text_bytes(&self) -> usize {
        self.buf.len()
    }
}

impl fmt::Debug for NameArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameArena")
            .field("strings", &self.spans.len())
            .field("text_bytes", &self.buf.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// IdArena: dense u32 index over sparse entity ids
// ---------------------------------------------------------------------------

/// Maps sparse entity ids (strided `UserId`s, attacker ids at 10⁷, …) to
/// dense `u32` slab slots, append-only. The slab itself lives next to the
/// arena as a plain `Vec<Slot>` indexed by the returned `u32`.
#[derive(Default)]
pub struct IdArena<K: Hash + Eq + Copy> {
    index: FxHashMap<K, u32>,
    keys: Vec<K>,
}

impl<K: Hash + Eq + Copy> IdArena<K> {
    pub fn new() -> Self {
        Self {
            index: FxHashMap::default(),
            keys: Vec::new(),
        }
    }

    /// Dense slot for `key`, allocating the next one on first sight.
    /// `None` when the arena is full (≥ 2³² keys) — checked, never
    /// truncated.
    pub fn intern(&mut self, key: K) -> Option<u32> {
        if let Some(&slot) = self.index.get(&key) {
            return Some(slot);
        }
        let slot = to_u32(self.keys.len())?;
        self.index.insert(key, slot);
        self.keys.push(key);
        Some(slot)
    }

    /// Dense slot for `key`, if it was ever interned.
    pub fn get(&self, key: K) -> Option<u32> {
        self.index.get(&key).copied()
    }

    /// The key occupying `slot`.
    pub fn key_of(&self, slot: u32) -> Option<K> {
        self.keys.get(slot as usize).copied()
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl<K: Hash + Eq + Copy + fmt::Debug> fmt::Debug for IdArena<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdArena")
            .field("len", &self.keys.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_inlines_short_and_boxes_long() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        let short = Name::new("f1234567.jpg");
        assert!(short.is_inline());
        assert_eq!(short.as_str(), "f1234567.jpg");
        assert_eq!(short, *"f1234567.jpg");
        let exactly = Name::new("0123456789abcdefghijkl"); // 22 bytes
        assert!(exactly.is_inline());
        assert_eq!(exactly.as_str().len(), 22);
        let long = Name::new("r3_r2_r1_f12345678.docx");
        assert!(!long.is_inline());
        assert_eq!(long.as_str(), "r3_r2_r1_f12345678.docx");
        assert_eq!(Name::default().as_str(), "");
        // Deref: existing `&row.name` call sites expecting `&str` coerce.
        fn takes_str(s: &str) -> usize {
            s.len()
        }
        assert_eq!(takes_str(&short), 12);
        assert_eq!(format!("x{long}"), "xr3_r2_r1_f12345678.docx");
    }

    #[test]
    fn name_from_fmt_matches_format() {
        for n in [0u64, 7, 123_456_789, u64::MAX] {
            for ext in ["c", "docx", "averyveryverylongextension"] {
                let want = format!("f{n}.{ext}");
                let got = Name::from_fmt(format_args!("f{n}.{ext}"));
                assert_eq!(got.as_str(), want);
                assert_eq!(got.is_inline(), want.len() <= NAME_INLINE, "{want}");
            }
        }
    }

    #[test]
    fn name_equality_ordering_hashing_follow_the_text() {
        use std::collections::HashSet;
        let a = Name::new("aaa");
        let b = Name::from("aaa".to_string());
        assert_eq!(a, b);
        assert!(Name::new("a") < Name::new("b"));
        let mut set = HashSet::new();
        set.insert(Name::new("dup"));
        assert!(!set.insert(Name::from("dup")));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn ext_sanitizes_exactly_like_the_trace_serializer() {
        assert_eq!(std::mem::size_of::<Ext>(), 17);
        for (raw, want) in [
            ("", ""),
            ("≈∅", ""),
            ("häßlich", "hlich"),
            ("TARGZ", "targz"),
            ("verylongextension", "verylongextensio"),
            ("a.b-c_d", "abcd"),
            ("J,P\nG", "jpg"),
            ("mp3", "mp3"),
        ] {
            let e = Ext::new(raw);
            assert_eq!(e.as_str(), want, "raw {raw:?}");
            // Idempotent: re-sanitizing the canonical form is the identity.
            assert_eq!(Ext::new(e.as_str()), e);
        }
        assert!(Ext::new("").is_empty());
        assert_eq!(Ext::new("txt"), *"txt");
        // Bytes that are not UTF-8 are dropped like any other non-alphanumeric.
        assert_eq!(Ext::from_bytes(b"J\xffP\xc3G\x00"), *"jpg");
    }

    #[test]
    fn name_arena_dedups_and_round_trips() {
        let mut arena = NameArena::new();
        let a = arena.intern("f1.jpg").unwrap();
        let b = arena.intern("f2.mp3").unwrap();
        let a2 = arena.intern("f1.jpg").unwrap();
        assert_eq!(a, a2, "equal strings intern to the same id");
        assert_ne!(a, b);
        assert_eq!(arena.resolve(a), "f1.jpg");
        assert_eq!(arena.resolve(b), "f2.mp3");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.text_bytes(), "f1.jpg".len() + "f2.mp3".len());
        assert_eq!(arena.lookup("f1.jpg"), Some(a));
        assert_eq!(arena.lookup("missing"), None);
        // Empty string interns fine.
        let e = arena.intern("").unwrap();
        assert_eq!(arena.resolve(e), "");
        assert_eq!(arena.lookup(""), Some(e));
    }

    #[test]
    fn name_arena_resolves_a_hash_chain_by_text() {
        let mut arena = NameArena::new();
        let other = arena.intern("other").unwrap();
        // Three names forced onto one hash: one chain through the spans.
        let ids: Vec<NameId> = ["a", "b", "c"]
            .iter()
            .map(|s| arena.intern_hashed(7, s).unwrap())
            .collect();
        assert_eq!(ids, vec![NameId(1), NameId(2), NameId(3)], "ids in order");
        for (s, id) in ["a", "b", "c"].iter().zip(&ids) {
            assert_eq!(arena.lookup_hashed(7, s), Some(*id));
            assert_eq!(arena.intern_hashed(7, s), Some(*id), "no duplicate");
            assert_eq!(arena.resolve(*id), *s);
        }
        assert_eq!(arena.lookup_hashed(7, "d"), None);
        assert_eq!(arena.lookup_hashed(7, "other"), None, "text, not hash");
        assert_eq!(arena.lookup("other"), Some(other));
        assert_eq!(arena.len(), 4);
    }

    #[test]
    fn name_arena_survives_many_distinct_names() {
        let mut arena = NameArena::new();
        let ids: Vec<NameId> = (0..10_000)
            .map(|i| arena.intern(&format!("f{i}.dat")).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(arena.resolve(*id), format!("f{i}.dat"));
        }
        assert_eq!(arena.len(), 10_000);
    }

    #[test]
    fn id_arena_assigns_dense_slots() {
        let mut arena: IdArena<u64> = IdArena::new();
        // Sparse, strided, out-of-order ids — like shard-strided UserIds.
        let slots: Vec<u32> = [1u64, 11, 21, 10_000_001, 11]
            .iter()
            .map(|&k| arena.intern(k).unwrap())
            .collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 1]);
        assert_eq!(arena.get(21), Some(2));
        assert_eq!(arena.get(99), None);
        assert_eq!(arena.key_of(3), Some(10_000_001));
        assert_eq!(arena.key_of(9), None);
        assert_eq!(arena.len(), 4);
    }

    #[test]
    fn checked_conversions_reject_overflow() {
        assert_eq!(to_u32(0), Some(0));
        assert_eq!(to_u32(u32::MAX as usize), Some(u32::MAX));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(to_u32(u32::MAX as usize + 1), None);
    }
}

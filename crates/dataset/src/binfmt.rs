//! The `tagdist-dataset bin v1` on-disk binary columnar format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "#tagdist-dataset bin v1\n"          ASCII magic line
//! u32 country_count
//! u32 video_count
//! u32 tag_count
//! u32 section_count                    12 in v1
//! section table, one 28-byte entry per section:
//!     u32 id                           SEC_* constant, ascending
//!     u64 offset                       from start of payload region
//!     u64 len                          section byte length
//!     u64 checksum                     FNV-1a 64 over the bytes
//! payload: the section bytes, concatenated in table order
//! ```
//!
//! | id | section          | contents                                |
//! |----|------------------|-----------------------------------------|
//! | 1  | key offsets      | `(n+1) × u32` into section 2            |
//! | 2  | key bytes        | UTF-8 pool of video keys                |
//! | 3  | title offsets    | `(n+1) × u32` into section 4            |
//! | 4  | title bytes      | UTF-8 pool of titles                    |
//! | 5  | total views      | `n × u64`                               |
//! | 6  | tag spine        | `(n+1) × u32` CSR rows into section 7   |
//! | 7  | tag ids          | flat `u32` per-video tag lists          |
//! | 8  | popularity kind  | `n × u8` `POP_*` sentinels              |
//! | 9  | pop offsets      | `(n+1) × u32` into section 10           |
//! | 10 | pop bytes        | raw popularity payloads                 |
//! | 11 | tag-name offsets | `(t+1) × u32` into section 12           |
//! | 12 | tag-name bytes   | UTF-8 pool of interned tag names        |
//!
//! The magic shares the `#tagdist-dataset ` prefix with the TSV header
//! so one 24-byte sniff distinguishes the two (see
//! [`format`](crate::format)). Encoding is deterministic — the same
//! dataset always produces byte-identical files — because every column
//! is emitted in dense id order and the section table is fixed. The
//! encoder builds the little-endian sections straight from a
//! [`Dataset`]'s records and writes them through one section writer
//! that computes the checksums.
//!
//! Decoding has one validation path: [`decode_borrowed`] walks the
//! image once, verifies every section checksum and every cross-section
//! invariant (monotone offsets, UTF-8 boundaries, tag-id bounds,
//! popularity shapes), and returns a [`ColumnarView`] whose sections
//! *borrow* the input — zero copies, which over an
//! [`Mmap`](crate::mmap::Mmap) makes loading a page-cache-speed
//! operation. Code that wants records calls
//! [`ColumnarView::to_dataset`]. Because sections are concatenated
//! without padding, numeric sections are unaligned in the file; the
//! view keeps them as `&[u8]` and decodes each access with
//! `from_le_bytes` instead of transmuting.

use std::io::Write;

use tagdist_obs::Recorder;

use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::record::{RawPopularity, VideoId, VideoRecord};
use crate::tag::{TagId, TagInterner};

/// First bytes of every binary dataset file.
pub const MAGIC: &[u8] = b"#tagdist-dataset bin v1\n";

/// Popularity sentinel: no chart was served.
pub const POP_MISSING: u8 = 0;
/// Popularity sentinel: a structurally valid intensity vector.
pub const POP_VALID: u8 = 1;
/// Popularity sentinel: raw bytes that failed decoding.
pub const POP_CORRUPT: u8 = 2;

/// Section ids, in file order.
const SECTION_IDS: [u32; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash, the section checksum function.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn format_err(message: impl Into<String>) -> DatasetError {
    DatasetError::Format {
        message: message.into(),
    }
}

/// Narrows a count, length or id to the `u32` range of `bin v1`.
fn to_u32(index: usize, what: &str) -> Result<u32, DatasetError> {
    u32::try_from(index)
        .map_err(|_| format_err(format!("{what} ({index}) exceeds the u32 range of bin v1")))
}

/// Appends `index` to a section as a little-endian `u32`.
fn push_u32(section: &mut Vec<u8>, index: usize, what: &str) -> Result<(), DatasetError> {
    section.extend_from_slice(&to_u32(index, what)?.to_le_bytes());
    Ok(())
}

/// The header counts and the twelve encoded sections of one `bin v1`
/// image, in file order.
pub(crate) struct Sections {
    counts: [u32; 3],
    bytes: [Vec<u8>; 12],
}

impl Sections {
    /// Encodes a record [`Dataset`] section by section.
    ///
    /// Deterministic: videos are visited in id order and tag names in
    /// interner order, so the same dataset always produces the same
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`DatasetError::Format`] if a count, a string pool, the
    /// popularity block, the tag spine or a tag id exceeds the `u32`
    /// range (≈4 GiB per pool; beyond v1's design point).
    pub(crate) fn from_dataset(dataset: &Dataset) -> Result<Sections, DatasetError> {
        let n = dataset.len();
        let offsets = |rows: usize| {
            let mut section = Vec::with_capacity((rows + 1) * 4);
            section.extend_from_slice(&0u32.to_le_bytes());
            section
        };
        let (mut key_offsets, mut key_bytes) = (offsets(n), Vec::new());
        let (mut title_offsets, mut title_bytes) = (offsets(n), Vec::new());
        let (mut tag_rows, mut tag_ids) = (offsets(n), Vec::new());
        let (mut pop_offsets, mut pop_bytes) = (offsets(n), Vec::new());
        let mut total_views = Vec::with_capacity(n * 8);
        let mut pop_kind = Vec::with_capacity(n);
        for video in dataset.iter() {
            key_bytes.extend_from_slice(video.key.as_bytes());
            push_u32(&mut key_offsets, key_bytes.len(), "video key pool")?;
            title_bytes.extend_from_slice(video.title.as_bytes());
            push_u32(&mut title_offsets, title_bytes.len(), "title pool")?;
            total_views.extend_from_slice(&video.total_views.to_le_bytes());
            for &tag in &video.tags {
                push_u32(&mut tag_ids, tag.index(), "tag id")?;
            }
            push_u32(&mut tag_rows, tag_ids.len() / 4, "tag spine")?;
            let (kind, payload): (u8, &[u8]) = match &video.popularity {
                RawPopularity::Missing => (POP_MISSING, &[]),
                RawPopularity::Valid(p) => (POP_VALID, p.as_slice()),
                RawPopularity::Corrupt(bytes) => (POP_CORRUPT, bytes),
            };
            pop_kind.push(kind);
            pop_bytes.extend_from_slice(payload);
            push_u32(&mut pop_offsets, pop_bytes.len(), "popularity block")?;
        }
        let (mut tagname_offsets, mut tagname_bytes) = (offsets(dataset.tags().len()), Vec::new());
        for (_, name) in dataset.tags().iter() {
            tagname_bytes.extend_from_slice(name.as_bytes());
            push_u32(&mut tagname_offsets, tagname_bytes.len(), "tag-name pool")?;
        }

        Ok(Sections {
            counts: [
                to_u32(dataset.country_count(), "country count")?,
                to_u32(n, "video count")?,
                to_u32(dataset.tags().len(), "tag count")?,
            ],
            bytes: [
                key_offsets,
                key_bytes,
                title_offsets,
                title_bytes,
                total_views,
                tag_rows,
                tag_ids,
                pop_kind,
                pop_offsets,
                pop_bytes,
                tagname_offsets,
                tagname_bytes,
            ],
        })
    }

    /// Writes the magic, the header counts, the section table (one
    /// FNV-1a checksum per section) and the payload.
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure from `writer`.
    pub(crate) fn write<W: Write>(&self, mut writer: W) -> Result<(), DatasetError> {
        writer.write_all(MAGIC)?;
        for word in self.counts.into_iter().chain([SECTION_IDS.len() as u32]) {
            writer.write_all(&word.to_le_bytes())?;
        }
        let mut offset = 0u64;
        for (id, bytes) in SECTION_IDS.iter().zip(&self.bytes) {
            writer.write_all(&id.to_le_bytes())?;
            writer.write_all(&offset.to_le_bytes())?;
            writer.write_all(&(bytes.len() as u64).to_le_bytes())?;
            writer.write_all(&fnv1a(bytes).to_le_bytes())?;
            offset += bytes.len() as u64;
        }
        for bytes in &self.bytes {
            writer.write_all(bytes)?;
        }
        Ok(())
    }
}

/// A little-endian reader over the header region.
struct Header<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Header<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DatasetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format_err(format!("truncated header: missing {what}")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self, what: &str) -> Result<u32, DatasetError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, DatasetError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// One parsed section-table entry.
struct Section {
    id: u32,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// Reads the `idx`-th little-endian `u32` of a raw section slice.
///
/// Sections are concatenated without padding, so numeric sections are
/// in general *unaligned* — borrowed columns therefore stay `&[u8]`
/// and every access decodes through `from_le_bytes` (free on the
/// little-endian targets this runs on; no transmute, no `unsafe`).
#[inline]
fn u32_at(bytes: &[u8], idx: usize) -> u32 {
    let o = idx * 4;
    u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]])
}

/// Reads the `idx`-th little-endian `u64` of a raw section slice.
#[inline]
fn u64_at(bytes: &[u8], idx: usize) -> u64 {
    let o = idx * 8;
    u64::from_le_bytes([
        bytes[o],
        bytes[o + 1],
        bytes[o + 2],
        bytes[o + 3],
        bytes[o + 4],
        bytes[o + 5],
        bytes[o + 6],
        bytes[o + 7],
    ])
}

/// A fully *validated* columnar dataset whose sections are borrowed
/// from the undecoded file image.
///
/// Produced by [`decode_borrowed`], typically over a memory-mapped
/// file ([`Mmap`](crate::mmap::Mmap)): headers, checksums and every
/// column invariant are verified up front, but the section bytes
/// themselves stay where they are. String pools are held as checked
/// `&str`; fixed-width integer sections stay raw `&[u8]` (they are
/// unaligned in the file) and are decoded per access with
/// `from_le_bytes`. Because the decoder validated every column, the
/// accessors panic only on out-of-range indices.
///
/// [`filter_columnar`](crate::filter::filter_columnar) consumes a view
/// without a single per-video copy; [`to_dataset`](Self::to_dataset)
/// rebuilds records for code that wants them.
#[derive(Debug, Clone, Copy)]
pub struct ColumnarView<'a> {
    country_count: u32,
    video_count: usize,
    tag_count: usize,
    key_offsets: &'a [u8],
    key_bytes: &'a str,
    title_offsets: &'a [u8],
    title_bytes: &'a str,
    total_views: &'a [u8],
    tag_rows: &'a [u8],
    tag_ids: &'a [u8],
    pop_kind: &'a [u8],
    pop_offsets: &'a [u8],
    pop_bytes: &'a [u8],
    tagname_offsets: &'a [u8],
    tagname_bytes: &'a str,
}

impl ColumnarView<'_> {
    /// Slices a string pool by the offsets stored in a raw offset
    /// section (offsets pre-validated: monotone, in range, on char
    /// boundaries).
    #[inline]
    fn pool_str<'a>(pool: &'a str, offsets: &[u8], i: usize) -> &'a str {
        &pool[u32_at(offsets, i) as usize..u32_at(offsets, i + 1) as usize]
    }

    /// Number of videos.
    #[must_use]
    pub fn len(&self) -> usize {
        self.video_count
    }

    /// Returns `true` if the dataset contains no videos.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.video_count == 0
    }

    /// Number of countries each popularity vector is expected to cover.
    #[must_use]
    pub fn country_count(&self) -> usize {
        self.country_count as usize
    }

    /// Number of distinct interned tags.
    #[must_use]
    pub fn tag_count(&self) -> usize {
        self.tag_count
    }

    /// The external platform key of video `i`.
    #[must_use]
    pub fn key(&self, i: usize) -> &str {
        Self::pool_str(self.key_bytes, self.key_offsets, i)
    }

    /// The display title of video `i`.
    #[must_use]
    pub fn title(&self, i: usize) -> &str {
        Self::pool_str(self.title_bytes, self.title_offsets, i)
    }

    /// Total worldwide views of video `i`.
    #[must_use]
    pub fn total_views(&self, i: usize) -> u64 {
        u64_at(self.total_views, i)
    }

    /// Range of video `i`'s tags in the flat tag-id column (the CSR
    /// row `[spine[i], spine[i+1])`).
    #[must_use]
    pub fn tag_range(&self, i: usize) -> core::ops::Range<usize> {
        u32_at(self.tag_rows, i) as usize..u32_at(self.tag_rows, i + 1) as usize
    }

    /// The `k`-th entry of the flat tag-id column.
    #[must_use]
    pub fn tag_id(&self, k: usize) -> u32 {
        u32_at(self.tag_ids, k)
    }

    /// The `POP_*` sentinel of video `i`.
    #[must_use]
    pub fn pop_kind(&self, i: usize) -> u8 {
        self.pop_kind[i]
    }

    /// Raw popularity payload bytes of video `i` (empty for
    /// `POP_MISSING`; exactly `country_count` in-range intensities for
    /// `POP_VALID`).
    #[must_use]
    pub fn pop_payload(&self, i: usize) -> &[u8] {
        &self.pop_bytes
            [u32_at(self.pop_offsets, i) as usize..u32_at(self.pop_offsets, i + 1) as usize]
    }

    /// The interned name of tag `t`.
    #[must_use]
    pub fn tag_name(&self, t: usize) -> &str {
        Self::pool_str(self.tagname_bytes, self.tagname_offsets, t)
    }

    /// Rebuilds a record-oriented [`Dataset`] for code paths that still
    /// want [`VideoRecord`]s; the pipeline itself filters the view
    /// directly.
    ///
    /// Uses the crate's fast `Dataset::from_parts` constructor instead of
    /// replaying a [`DatasetBuilder`](crate::DatasetBuilder): tag names
    /// are adopted verbatim (they were normalized when first interned)
    /// and tag ids are taken as stored. `POP_CORRUPT` payloads are kept
    /// byte for byte, so TSV↔bin round trips are lossless.
    #[must_use]
    pub fn to_dataset(&self) -> Dataset {
        let names = (0..self.tag_count)
            .map(|t| self.tag_name(t).to_owned())
            .collect();
        let videos = (0..self.video_count)
            .map(|i| {
                let payload = self.pop_payload(i).to_vec();
                VideoRecord {
                    id: VideoId::from_index(i),
                    key: self.key(i).to_owned(),
                    title: self.title(i).to_owned(),
                    total_views: self.total_views(i),
                    tags: self
                        .tag_range(i)
                        .map(|k| TagId::from_index(self.tag_id(k) as usize))
                        .collect(),
                    popularity: match self.pop_kind(i) {
                        POP_MISSING => RawPopularity::Missing,
                        POP_VALID => RawPopularity::decode(payload, self.country_count()),
                        _ => RawPopularity::Corrupt(payload),
                    },
                }
            })
            .collect();
        Dataset::from_parts(videos, TagInterner::from_names(names), self.country_count())
    }

    /// Records the section sizes as `dataset.*` gauges: string pools
    /// (key and title offsets + bytes), postings (tag spine + ids),
    /// the popularity block, the tag-name pool, and the video and tag
    /// counts.
    ///
    /// Every value is a pure function of the dataset contents, so the
    /// gauges belong in the deterministic subtree of a metrics report.
    pub fn record_gauges(&self, recorder: &Recorder) {
        let bytes = |sections: &[&[u8]]| sections.iter().map(|s| s.len() as u64).sum();
        let gauges = [
            (
                "dataset.string_pool_bytes",
                bytes(&[
                    self.key_offsets,
                    self.key_bytes.as_bytes(),
                    self.title_offsets,
                    self.title_bytes.as_bytes(),
                ]),
            ),
            (
                "dataset.postings_bytes",
                bytes(&[self.tag_rows, self.tag_ids]),
            ),
            (
                "dataset.popularity_bytes",
                bytes(&[self.pop_kind, self.pop_offsets, self.pop_bytes]),
            ),
            (
                "dataset.tag_names_bytes",
                bytes(&[self.tagname_offsets, self.tagname_bytes.as_bytes()]),
            ),
            ("dataset.videos", self.video_count as u64),
            ("dataset.tags", self.tag_count as u64),
        ];
        for (name, value) in gauges {
            recorder.gauge_max(name, value);
        }
    }
}

/// A file image split into its checksum-verified section slices.
struct SplitImage<'a> {
    country_count: u32,
    video_count: usize,
    tag_count: usize,
    slices: [&'a [u8]; 12],
}

/// Splits a file image into header counts and section slices.
///
/// This is the front half of [`decode_borrowed`]: magic, counts,
/// table order, offset contiguity, truncation, per-section FNV-1a
/// checksums and trailing garbage are all enforced here.
fn split_sections(buf: &[u8]) -> Result<SplitImage<'_>, DatasetError> {
    let body = buf
        .strip_prefix(MAGIC)
        .ok_or_else(|| format_err("bad magic: not a `#tagdist-dataset bin v1` file"))?;
    let mut h = Header { buf: body, pos: 0 };
    let country_count = h.u32("country count")?;
    let video_count = h.u32("video count")? as usize;
    let tag_count = h.u32("tag count")? as usize;
    let section_count = h.u32("section count")? as usize;
    if section_count != SECTION_IDS.len() {
        return Err(format_err(format!(
            "expected {} sections, header declares {section_count}",
            SECTION_IDS.len()
        )));
    }

    let mut sections = Vec::with_capacity(section_count);
    for expected_id in SECTION_IDS {
        let id = h.u32("section id")?;
        if id != expected_id {
            return Err(format_err(format!(
                "section table out of order: expected id {expected_id}, found {id}"
            )));
        }
        sections.push(Section {
            id,
            offset: h.u64("section offset")?,
            len: h.u64("section length")?,
            checksum: h.u64("section checksum")?,
        });
    }

    let payload = &body[h.pos..];
    let mut slices: [&[u8]; 12] = [&[]; 12];
    let mut expected_offset = 0u64;
    for (slot, s) in slices.iter_mut().zip(&sections) {
        if s.offset != expected_offset {
            return Err(format_err(format!(
                "section {}: offset {} does not follow the previous section (expected {})",
                s.id, s.offset, expected_offset
            )));
        }
        let start = usize::try_from(s.offset)
            .map_err(|_| format_err(format!("section {}: offset overflows usize", s.id)))?;
        let end = usize::try_from(s.offset + s.len)
            .ok()
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| {
                format_err(format!(
                    "section {}: truncated payload ({} bytes needed, {} available)",
                    s.id,
                    s.offset + s.len,
                    payload.len()
                ))
            })?;
        let bytes = &payload[start..end];
        let actual = fnv1a(bytes);
        if actual != s.checksum {
            return Err(DatasetError::Checksum {
                section: s.id,
                expected: s.checksum,
                actual,
            });
        }
        *slot = bytes;
        expected_offset += s.len;
    }
    if usize::try_from(expected_offset).ok() != Some(payload.len()) {
        return Err(format_err(format!(
            "{} trailing payload byte(s) after the last section",
            payload.len() as u64 - expected_offset
        )));
    }
    Ok(SplitImage {
        country_count,
        video_count,
        tag_count,
        slices,
    })
}

/// Requires an integer section's byte length to be a whole number of
/// `width`-byte entries.
fn check_stride(bytes: &[u8], width: usize, what: &str) -> Result<(), DatasetError> {
    if bytes.len() % width != 0 {
        return Err(format_err(format!(
            "section {what}: length {} is not a multiple of {width}",
            bytes.len()
        )));
    }
    Ok(())
}

/// Deserializes a columnar dataset *in place*: every section stays a
/// borrow of `buf`, but all validation — checksums, offset
/// monotonicity, UTF-8, tag-id bounds, popularity shapes — runs up
/// front, so the returned view's accessors never re-check. This is the zero-copy load path for memory-mapped files.
///
/// # Errors
///
/// * [`DatasetError::Format`] on bad magic, a truncated header or
///   payload, an out-of-order section table, or any column invariant
///   violation.
/// * [`DatasetError::Checksum`] when a section's recorded FNV-1a hash
///   does not match its bytes.
pub fn decode_borrowed(buf: &[u8]) -> Result<ColumnarView<'_>, DatasetError> {
    let SplitImage {
        country_count,
        video_count,
        tag_count,
        slices,
    } = split_sections(buf)?;

    check_stride(slices[0], 4, "key offsets")?;
    let key_bytes =
        std::str::from_utf8(slices[1]).map_err(|_| format_err("key pool is not valid UTF-8"))?;
    check_stride(slices[2], 4, "title offsets")?;
    let title_bytes =
        std::str::from_utf8(slices[3]).map_err(|_| format_err("title pool is not valid UTF-8"))?;
    check_stride(slices[4], 8, "total views")?;
    check_stride(slices[5], 4, "tag spine")?;
    check_stride(slices[6], 4, "tag ids")?;
    check_stride(slices[8], 4, "pop offsets")?;
    check_stride(slices[10], 4, "tag-name offsets")?;
    let tagname_bytes = std::str::from_utf8(slices[11])
        .map_err(|_| format_err("tag-name pool is not valid UTF-8"))?;

    let view = ColumnarView {
        country_count,
        video_count,
        tag_count,
        key_offsets: slices[0],
        key_bytes,
        title_offsets: slices[2],
        title_bytes,
        total_views: slices[4],
        tag_rows: slices[5],
        tag_ids: slices[6],
        pop_kind: slices[7],
        pop_offsets: slices[8],
        pop_bytes: slices[9],
        tagname_offsets: slices[10],
        tagname_bytes,
    };

    check_offsets_raw(
        view.key_offsets,
        video_count,
        key_bytes.len(),
        "key offsets",
    )?;
    check_boundaries_raw(view.key_offsets, key_bytes, "key offsets")?;
    check_offsets_raw(
        view.title_offsets,
        video_count,
        title_bytes.len(),
        "title offsets",
    )?;
    check_boundaries_raw(view.title_offsets, title_bytes, "title offsets")?;
    if view.total_views.len() / 8 != video_count {
        return Err(format_err(format!(
            "total views: {} entries for {video_count} video(s)",
            view.total_views.len() / 8
        )));
    }
    check_offsets_raw(
        view.tag_rows,
        video_count,
        view.tag_ids.len() / 4,
        "tag spine",
    )?;
    for k in 0..view.tag_ids.len() / 4 {
        let t = u32_at(view.tag_ids, k);
        if t as usize >= tag_count {
            return Err(format_err(format!(
                "tag id {t} out of range (tag count {tag_count})"
            )));
        }
    }
    if view.pop_kind.len() != video_count {
        return Err(format_err(format!(
            "popularity kinds: {} entries for {video_count} video(s)",
            view.pop_kind.len()
        )));
    }
    check_offsets_raw(
        view.pop_offsets,
        video_count,
        view.pop_bytes.len(),
        "pop offsets",
    )?;
    for (i, &kind) in view.pop_kind.iter().enumerate() {
        let start = u32_at(view.pop_offsets, i);
        let len = (u32_at(view.pop_offsets, i + 1) - start) as usize;
        match kind {
            POP_MISSING if len != 0 => {
                return Err(format_err(format!(
                    "video {i}: missing popularity carries {len} payload byte(s)"
                )));
            }
            POP_VALID => {
                if len != country_count as usize {
                    return Err(format_err(format!(
                        "video {i}: valid popularity has {len} byte(s), expected {country_count}"
                    )));
                }
                let payload = &view.pop_bytes[start as usize..start as usize + len];
                if let Some(&bad) = payload.iter().find(|&&b| b > 61) {
                    return Err(format_err(format!(
                        "video {i}: valid popularity intensity {bad} exceeds 61"
                    )));
                }
            }
            POP_MISSING | POP_CORRUPT => {}
            other => {
                return Err(format_err(format!(
                    "video {i}: unknown popularity kind {other}"
                )));
            }
        }
    }
    check_offsets_raw(
        view.tagname_offsets,
        tag_count,
        tagname_bytes.len(),
        "tag-name offsets",
    )?;
    check_boundaries_raw(view.tagname_offsets, tagname_bytes, "tag-name offsets")?;

    Ok(view)
}

/// Validates a raw LE `u32` offset column: `count + 1` entries,
/// monotone, starting at 0 and ending at the pool length. Operates on
/// the undecoded section bytes so the borrowed mode never materializes
/// a `Vec`.
fn check_offsets_raw(
    offsets: &[u8],
    count: usize,
    pool_len: usize,
    what: &str,
) -> Result<(), DatasetError> {
    let entries = offsets.len() / 4;
    if entries != count + 1 {
        return Err(format_err(format!(
            "{what}: {entries} entries for {count} row(s) (need {})",
            count + 1
        )));
    }
    if u32_at(offsets, 0) != 0 {
        return Err(format_err(format!("{what}: first offset is not 0")));
    }
    let mut prev = 0u32;
    for i in 1..entries {
        let o = u32_at(offsets, i);
        if o < prev {
            return Err(format_err(format!("{what}: offsets are not monotone")));
        }
        prev = o;
    }
    if prev as usize != pool_len {
        return Err(format_err(format!(
            "{what}: last offset does not match the pool length {pool_len}"
        )));
    }
    Ok(())
}

/// Validates that every string-pool offset falls on a UTF-8 character
/// boundary, so accessors can slice without panicking.
fn check_boundaries_raw(offsets: &[u8], pool: &str, what: &str) -> Result<(), DatasetError> {
    for i in 0..offsets.len() / 4 {
        let o = u32_at(offsets, i);
        if !pool.is_char_boundary(o as usize) {
            return Err(format_err(format!(
                "{what}: offset {o} splits a UTF-8 character"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new(3);
        b.push_video_titled(
            "vid,weird\tkey",
            "Ünïcödé title",
            123,
            &["pop", "hip hop", "a,b"],
            RawPopularity::decode(vec![61, 0, 7], 3),
        );
        b.push_video("plain", 0, &[], RawPopularity::Missing);
        b.push_video_titled(
            "corrupt",
            "c",
            9,
            &["x", "pop"],
            RawPopularity::decode(vec![1, 2], 3),
        );
        b.build()
    }

    /// Encodes `d`, lets `patch` edit the section bytes, and writes the
    /// image through the section writer so every checksum matches the
    /// patched bytes — only the column invariants can reject it.
    fn encode_patched(d: &Dataset, patch: impl FnOnce(&mut [Vec<u8>; 12])) -> Vec<u8> {
        let mut sections = Sections::from_dataset(d).unwrap();
        patch(&mut sections.bytes);
        let mut buf = Vec::new();
        sections.write(&mut buf).unwrap();
        buf
    }

    fn encode(d: &Dataset) -> Vec<u8> {
        encode_patched(d, |_| {})
    }

    /// Pins the `bin v1` bytes of a fixed image: any drift in section
    /// order, widths, sentinels or checksums changes the digest.
    #[test]
    fn encoding_matches_the_pinned_digest() {
        let mut b = DatasetBuilder::new(3);
        b.push_video_titled(
            "valid",
            "São Paulo ♫ 東京",
            1_234_567,
            &["pop", "música"],
            RawPopularity::decode(vec![61, 0, 7], 3),
        );
        b.push_video_titled("untagged", "", 0, &[], RawPopularity::Missing);
        b.push_video_titled(
            "corrupt",
            "c",
            u64::MAX,
            &["pop", "x"],
            RawPopularity::Corrupt(vec![255, 1]),
        );
        let mut buf = Vec::new();
        crate::format::write_binary(&b.build(), &mut buf).unwrap();
        assert_eq!(fnv1a(&buf), 0x8cb0_fe87_c104_9b8a);
    }

    #[test]
    fn view_mirrors_the_records() {
        let d = sample();
        let buf = encode(&d);
        let v = decode_borrowed(&buf).unwrap();
        assert_eq!(v.len(), d.len());
        assert_eq!(v.country_count(), d.country_count());
        assert_eq!(v.tag_count(), d.tags().len());
        for (i, r) in d.iter().enumerate() {
            assert_eq!(v.key(i), r.key);
            assert_eq!(v.title(i), r.title);
            assert_eq!(v.total_views(i), r.total_views);
            let tags: Vec<u32> = v.tag_range(i).map(|k| v.tag_id(k)).collect();
            let expected: Vec<u32> = r.tags.iter().map(|t| t.index() as u32).collect();
            assert_eq!(tags, expected);
        }
        for (id, name) in d.tags().iter() {
            assert_eq!(v.tag_name(id.index()), name);
        }
    }

    #[test]
    fn round_trips_to_an_identical_dataset_and_image() {
        let d = sample();
        let buf = encode(&d);
        let r = decode_borrowed(&buf).unwrap().to_dataset();
        assert_eq!(r.len(), d.len());
        assert_eq!(r.country_count(), d.country_count());
        for (a, b) in d.iter().zip(r.iter()) {
            assert_eq!(a, b);
        }
        // Lookup indices are rebuilt, not just the records.
        assert_eq!(r.by_key("plain").unwrap().total_views, 0);
        let pop = r.tags().id("pop").unwrap();
        assert_eq!(r.videos_with_tag(pop).len(), 2);
        // Re-encoding the rebuilt dataset reproduces the bytes.
        assert_eq!(buf, encode(&r));
    }

    #[test]
    fn encode_is_deterministic() {
        let d = sample();
        assert_eq!(encode(&d), encode(&d));
    }

    #[test]
    fn gauges_sum_to_the_payload_and_land_in_the_deterministic_subtree() {
        let buf = encode(&sample());
        let rec = Recorder::new();
        decode_borrowed(&buf).unwrap().record_gauges(&rec);
        let gauges = rec.finish().gauges;
        assert_eq!(gauges.get("dataset.videos"), Some(&3));
        assert_eq!(gauges.get("dataset.tags"), Some(&4));
        let sections = [
            "dataset.string_pool_bytes",
            "dataset.postings_bytes",
            "dataset.popularity_bytes",
            "dataset.tag_names_bytes",
        ];
        assert!(sections.iter().all(|name| gauges[*name] > 0));
        // The four groups cover every section but the 8-byte view
        // counts: the payload is what follows the magic, the four
        // header words and the section table.
        let payload = buf.len() - MAGIC.len() - 16 - 28 * SECTION_IDS.len();
        let total: u64 = sections.iter().map(|name| gauges[*name]).sum();
        assert_eq!(total, (payload - 8 * 3) as u64);
    }

    #[test]
    fn magic_shares_the_sniffable_prefix() {
        assert!(MAGIC.starts_with(b"#tagdist-dataset "));
        let buf = encode(&sample());
        assert!(buf.starts_with(MAGIC));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode_borrowed(b"#tagdist-dataset v1 countries=3\n").unwrap_err();
        assert!(matches!(err, DatasetError::Format { .. }), "{err}");
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let buf = encode(&sample());
        // Chopping the file anywhere must produce an error, never a
        // panic or a silently short dataset.
        for cut in 0..buf.len() {
            let err = decode_borrowed(&buf[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DatasetError::Format { .. } | DatasetError::Checksum { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn detects_payload_corruption_via_checksum() {
        let mut buf = encode(&sample());
        // Flip a byte in the middle of the payload (past the header).
        let tamper_at = buf.len() - 4;
        buf[tamper_at] ^= 0xff;
        let err = decode_borrowed(&buf).unwrap_err();
        assert!(matches!(err, DatasetError::Checksum { .. }), "{err}");
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = encode(&sample());
        buf.extend_from_slice(b"junk");
        let err = decode_borrowed(&buf).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_tag_ids() {
        let buf = encode_patched(&sample(), |s| {
            s[6][..4].copy_from_slice(&10_000u32.to_le_bytes());
        });
        let err = decode_borrowed(&buf).unwrap_err();
        assert!(err.to_string().contains("tag id"), "{err}");
    }

    #[test]
    fn rejects_invalid_valid_popularity() {
        // Claim the corrupt row (wrong length) is valid.
        let buf = encode_patched(&sample(), |s| s[7][2] = POP_VALID);
        let err = decode_borrowed(&buf).unwrap_err();
        assert!(err.to_string().contains("valid popularity"), "{err}");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn empty_dataset_round_trips() {
        let d = DatasetBuilder::new(60).build();
        let buf = encode(&d);
        let v = decode_borrowed(&buf).unwrap();
        assert!(v.is_empty());
        assert_eq!(v.country_count(), 60);
        assert_eq!(v.tag_count(), 0);
        let r = v.to_dataset();
        assert!(r.is_empty());
        assert_eq!(r.country_count(), 60);
    }
}

//! Multipart upload sessions (the S3 API surface of Appendix A).

use u1_core::SimTime;

/// The part size the U1 API servers used when forwarding client data to S3
/// (Appendix A: "the API server uploads to Amazon S3 the chunks of the file
/// transferred by the user (5MB)").
pub const PART_SIZE: u64 = 5 * 1024 * 1024;

/// Errors from the multipart API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultipartError {
    /// No such multipart upload id (never initiated, or already
    /// completed/aborted).
    UnknownUpload,
    /// Completing an upload that received no parts.
    NoParts,
    /// A zero-byte part.
    EmptyPart,
    /// The part-put failed transiently (injected fault). The upload itself
    /// stays alive: the part was not recorded, and re-sending it resumes
    /// from the last part that did arrive — the behavior uploadjobs exist
    /// for (§3).
    PartPutFailed,
}

impl std::fmt::Display for MultipartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultipartError::UnknownUpload => write!(f, "unknown multipart upload"),
            MultipartError::NoParts => write!(f, "multipart upload has no parts"),
            MultipartError::EmptyPart => write!(f, "empty part"),
            MultipartError::PartPutFailed => write!(f, "part put failed transiently"),
        }
    }
}

impl std::error::Error for MultipartError {}

/// An in-flight multipart upload.
#[derive(Debug)]
pub struct MultipartUpload {
    pub id: u64,
    pub initiated_at: SimTime,
    part_sizes: Vec<u64>,
    /// Concatenated bytes in live mode; `None` once any size-only part
    /// arrives (measurement mode).
    data: Option<Vec<u8>>,
}

impl MultipartUpload {
    pub fn new(id: u64, now: SimTime) -> Self {
        Self {
            id,
            initiated_at: now,
            part_sizes: Vec::new(),
            data: Some(Vec::new()),
        }
    }

    /// Appends a part. `data` carries real bytes in live mode: at most
    /// `len` of them, fewer when the part runs past the object's end. The
    /// first part with bytes is adopted as the object's buffer, not copied,
    /// so a one-part upload is stored with no copy; later parts are
    /// appended to it.
    pub fn add_part(&mut self, len: u64, data: Option<Vec<u8>>) -> Result<(), MultipartError> {
        if len == 0 {
            return Err(MultipartError::EmptyPart);
        }
        self.part_sizes.push(len);
        match (self.data.as_mut(), data) {
            (Some(buf), Some(bytes)) => {
                debug_assert!(bytes.len() as u64 <= len);
                if buf.is_empty() {
                    *buf = bytes;
                } else {
                    buf.extend_from_slice(&bytes);
                }
            }
            // Any size-only part degrades the whole upload to size-only.
            _ => self.data = None,
        }
        Ok(())
    }

    pub fn parts(&self) -> usize {
        self.part_sizes.len()
    }

    pub fn bytes(&self) -> u64 {
        self.part_sizes.iter().sum()
    }

    /// Consumes the upload into (size, bytes-if-live). A live object is
    /// as large as the bytes it holds.
    pub fn into_object(self) -> (u64, Option<Vec<u8>>) {
        match self.data {
            Some(bytes) => (bytes.len() as u64, Some(bytes)),
            None => (self.part_sizes.iter().sum(), None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_parts_and_bytes() {
        let mut mp = MultipartUpload::new(1, SimTime::ZERO);
        mp.add_part(3, Some(vec![1, 2, 3])).unwrap();
        mp.add_part(2, Some(vec![4, 5])).unwrap();
        assert_eq!(mp.parts(), 2);
        assert_eq!(mp.bytes(), 5);
        let (size, data) = mp.into_object();
        assert_eq!(size, 5);
        assert_eq!(data.unwrap(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn first_live_part_is_adopted_not_copied() {
        let mut mp = MultipartUpload::new(1, SimTime::ZERO);
        let part = vec![1, 2, 3];
        let at = part.as_ptr();
        mp.add_part(3, Some(part)).unwrap();
        let (_, data) = mp.into_object();
        let stored = data.unwrap();
        assert_eq!(stored.as_ptr(), at);
    }

    #[test]
    fn mixing_size_only_degrades_to_size_only() {
        let mut mp = MultipartUpload::new(1, SimTime::ZERO);
        mp.add_part(3, Some(vec![1, 2, 3])).unwrap();
        mp.add_part(10, None).unwrap();
        mp.add_part(2, Some(vec![9, 9])).unwrap();
        let (size, data) = mp.into_object();
        assert_eq!(size, 15);
        assert!(data.is_none());
    }

    #[test]
    fn rejects_empty_parts() {
        let mut mp = MultipartUpload::new(1, SimTime::ZERO);
        assert_eq!(mp.add_part(0, None), Err(MultipartError::EmptyPart));
    }
}

//! The unit of work: one generative request.

use crate::generator::FEATURE_DIM;
use serde::{Deserialize, Serialize};

/// Stable identifier of a request within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One generative request: a prompt of `input_len` tokens that will produce
/// `output_len` tokens.
///
/// `output_len` is **ground truth known only to the simulator oracle**: a
/// scheduler must never branch on it directly (the whole point of the
/// paper's AI-based greedy prefill is that output lengths are unknown until
/// completion). Schedulers observe completion when the generated-token
/// count reaches `output_len`, and may consult the *predictor* for an
/// estimate. The `features` vector is what the predictor sees — the
/// stand-in for the BERT `[CLS]` embedding of the prompt.
///
/// The embedding is stored inline, so a request is one 112-byte value
/// with no heap allocation of its own (a trace of 200k requests is one
/// 21 MiB buffer). Its JSON form is the same array a `Vec<f32>` writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Identifier, unique within a trace.
    pub id: RequestId,
    /// Prompt length in tokens (paper filters to < 1024).
    pub input_len: u32,
    /// Ground-truth output length in tokens (oracle only).
    pub output_len: u32,
    /// Latent scenario category that shaped `output_len` (oracle only;
    /// useful for diagnostics and predictor ceiling analysis).
    pub category: u8,
    /// Observable prompt embedding consumed by the length predictor.
    pub features: [f32; FEATURE_DIM],
}

// A field that grows every request of every trace fails the build here.
const _: () = assert!(std::mem::size_of::<Request>() == 112);

impl Request {
    /// The placeholder the in-place generators allocate their layouts
    /// with before filling every slot.
    pub(crate) const BLANK: Request = Request {
        id: RequestId(0),
        input_len: 0,
        output_len: 0,
        category: 0,
        features: [0.0; FEATURE_DIM],
    };

    /// Total tokens this request will ever hold in KV cache.
    #[inline]
    pub fn total_len(&self) -> u64 {
        self.input_len as u64 + self.output_len as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_len_sums() {
        let r = Request {
            id: RequestId(7),
            input_len: 100,
            output_len: 28,
            category: 3,
            features: [0.0; FEATURE_DIM],
        };
        assert_eq!(r.total_len(), 128);
        assert_eq!(r.id.to_string(), "r7");
    }
}

//! Committed digests of wire text: the bytes the float printer emits and
//! the bits the float reader returns, on the reply and request lines of a
//! `serve-wire` round trip and on an array of random bit patterns.
//!
//! Each digest is FNV-1a, over a line's bytes or over the little-endian
//! bytes of each value's bits read back. They were computed before the
//! printer and reader took their lane and word-at-a-time forms, so a codec
//! change that moves one byte of a line, or one bit of what a line reads
//! back as, fails here; update a digest only in a change that says why the
//! wire moved.

use orbit2::serving::{ServeRequest, ServeResponse};
use orbit2_climate::dataset::DownscalingSample;
use orbit2_climate::{DownscalingDataset, LatLonGrid, VariableSet};
use orbit2_serve::{tcp, ServerReply};

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bits_digest(values: &[f32]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// The field of the serving bench's `wire/*` cells: a `[7,32,64]` input and
/// its `[3,128,256]` target (98,304 values).
fn sample() -> DownscalingSample {
    DownscalingDataset::new(LatLonGrid::conus(128, 256), VariableSet::daymet_like(), 4, 2, 3).sample(0)
}

#[test]
fn reply_line_bytes_and_bits_are_pinned() {
    let target = sample().target;
    let resp = ServeResponse { id: 7, shape: target.shape().to_vec(), data: target.data().to_vec(), micros: 9_000 };
    let line = tcp::response_line(7, &Ok(resp));
    assert_eq!(fnv1a(line.bytes()), 0x9ac4_bcb6_2fd7_c150, "reply line bytes");
    let back = match ServerReply::parse(&line).expect("the reply line parses") {
        ServerReply::Response(resp) => resp,
        other => panic!("expected a response, got {other:?}"),
    };
    assert_eq!(back.shape, [3, 128, 256]);
    assert_eq!(bits_digest(&back.data), 0x9937_e585_9155_2a48, "reply bits read back");
    assert_eq!(bits_digest(&back.data), bits_digest(target.data()), "the reply reads back as the field");
}

#[test]
fn request_line_bytes_and_bits_are_pinned() {
    let input = sample().input;
    let req = ServeRequest::raw(7, input.shape().to_vec(), input.data().to_vec());
    let line = serde_json::to_string(&req).expect("a request serializes");
    assert_eq!(fnv1a(line.bytes()), 0xb0b6_e61d_26d9_453b, "request line bytes");
    let back: ServeRequest = serde_json::from_str(&line).expect("the request line parses");
    assert_eq!(back, req);
    let orbit2::serving::RequestSource::Raw { shape, data } = back.source else {
        panic!("a raw request reads back as one")
    };
    assert_eq!(shape, [7, 32, 64]);
    assert_eq!(bits_digest(&data), 0x6612_20cd_a151_4fec, "request bits read back");
}

/// 2^20 finite `f32`s drawn as uniform bit patterns (every exponent, both
/// signs, subnormals and zeros as often as they come up), from splitmix64.
#[test]
fn random_bit_pattern_text_and_bits_are_pinned() {
    let mut state = 0x5EED_0B17_F10A_7001u64;
    let mut xs = Vec::with_capacity(1 << 20);
    while xs.len() < 1 << 20 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        for bits in [z as u32, (z >> 32) as u32] {
            let x = f32::from_bits(bits);
            if x.is_finite() && xs.len() < 1 << 20 {
                xs.push(x);
            }
        }
    }
    let text = serde_json::to_string(&xs).expect("an array serializes");
    assert_eq!(fnv1a(text.bytes()), 0xe42a_1d7c_0bc1_f572, "array text");
    let back: Vec<f32> = serde_json::from_str(&text).expect("the array text parses");
    assert_eq!(bits_digest(&back), 0xb84e_55f6_5a39_567e, "array bits read back");
    assert_eq!(bits_digest(&back), bits_digest(&xs), "the text reads back as the values");
}

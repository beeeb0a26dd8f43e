//! Property tests for the wire decoders: the borrowed [`FrameReader`]
//! returns `Err` and never panics on arbitrary, truncated and length-lying
//! buffers, and reads every valid frame exactly as [`MessageReader`] does.

use asdf_rpc::wire::{Bytes, FrameReader, MessageBuilder, MessageReader, WireError};
use proptest::prelude::*;

/// One field of a message, in the order it was written.
#[derive(Debug, Clone)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    F64(f64),
    Str(String),
    Floats(Vec<f64>),
}

fn field() -> impl Strategy<Value = Field> {
    (
        0usize..6,
        any::<u64>(),
        "[a-z0-9./%-]{0,12}",
        proptest::collection::vec(any::<u64>(), 0..130),
    )
        .prop_map(|(kind, bits, text, floats)| match kind {
            0 => Field::U8(bits as u8),
            1 => Field::U32(bits as u32),
            2 => Field::U64(bits),
            // Any bit pattern, NaNs included: values travel bit for bit.
            3 => Field::F64(f64::from_bits(bits)),
            4 => Field::Str(text),
            _ => Field::Floats(floats.into_iter().map(f64::from_bits).collect()),
        })
}

fn encode(fields: &[Field]) -> Vec<u8> {
    let mut b = MessageBuilder::new();
    for f in fields {
        match f {
            Field::U8(v) => b.put_u8(*v),
            Field::U32(v) => b.put_u32(*v),
            Field::U64(v) => b.put_u64(*v),
            Field::F64(v) => b.put_f64(*v),
            Field::Str(v) => b.put_str(v),
            Field::Floats(v) => b.put_f64_slice(v),
        };
    }
    b.into_frame()
}

/// Reads `fields` back through both readers, which must agree on every
/// value and on the first error; a read stops at that error. On success the
/// values are also the ones written.
fn read_both(frame: &[u8], fields: &[Field]) -> Result<(), WireError> {
    let owned = MessageReader::new(Bytes::from(frame.to_vec()));
    let borrowed = FrameReader::new(frame);
    let (mut owned, mut borrowed) = match (owned, borrowed) {
        (Ok(o), Ok(b)) => (o, b),
        (Err(o), Err(b)) => {
            assert_eq!(o, b);
            return Err(b);
        }
        (o, b) => panic!("readers disagree on the frame: {o:?} vs {b:?}"),
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for f in fields {
        match f {
            Field::U8(v) => {
                let got = borrowed.get_u8();
                assert_eq!(owned.get_u8(), got);
                assert_eq!(got?, *v);
            }
            Field::U32(v) => {
                let got = borrowed.get_u32();
                assert_eq!(owned.get_u32(), got);
                assert_eq!(got?, *v);
            }
            Field::U64(v) => {
                let got = borrowed.get_u64();
                assert_eq!(owned.get_u64(), got);
                assert_eq!(got?, *v);
            }
            Field::F64(v) => {
                let got = borrowed.get_f64().map(f64::to_bits);
                assert_eq!(owned.get_f64().map(f64::to_bits), got);
                assert_eq!(got?, v.to_bits());
            }
            Field::Str(v) => {
                let got = borrowed.get_str();
                assert_eq!(owned.get_str().as_deref(), got.as_deref());
                assert_eq!(got?, v);
            }
            Field::Floats(v) => {
                let got = borrowed.get_f64s::<Vec<f64>>().map(|f| bits(&f));
                assert_eq!(owned.get_f64_slice().map(|o| bits(&o)), got);
                assert_eq!(got?, bits(v));
            }
        }
        assert_eq!(owned.remaining(), borrowed.remaining());
    }
    assert_eq!(borrowed.remaining(), 0);
    Ok(())
}

proptest! {
    #[test]
    fn valid_frames_read_the_same_through_both_readers(
        fields in proptest::collection::vec(field(), 0..8),
    ) {
        let frame = encode(&fields);
        prop_assert_eq!(read_both(&frame, &fields), Ok(()));
    }

    /// A frame cut short anywhere fails its length check; with the prefix
    /// rewritten to match, some field read runs out of bytes instead.
    #[test]
    fn truncated_frames_error_in_both_readers(
        fields in proptest::collection::vec(field(), 1..8),
        cut in 0usize..4096,
    ) {
        let frame = encode(&fields);
        // `encode` of at least one field is longer than the bare prefix.
        let cut = cut % (frame.len() - 1);
        let mut short = frame[..cut].to_vec();
        prop_assert!(read_both(&short, &fields).is_err());
        if short.len() >= 4 {
            let len = (short.len() - 4) as u32;
            short[..4].copy_from_slice(&len.to_le_bytes());
            prop_assert_eq!(read_both(&short, &fields), Err(WireError::UnexpectedEof));
        }
    }

    /// Arbitrary bytes behind an honest prefix, read as the shapes the
    /// collectors read (strings, then a float array whose length field is
    /// whatever the bytes say): `Err` or a value, never a panic, and the
    /// output never grows beyond what the buffer holds.
    #[test]
    fn arbitrary_payloads_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        shape in 0usize..4,
    ) {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        let mut r = FrameReader::new(&frame).unwrap();
        let mut owned = MessageReader::new(Bytes::from(frame.clone())).unwrap();
        let mut out = Vec::new();
        let read = (|| {
            for _ in 0..shape {
                let s = r.get_str().map(str::to_owned);
                assert_eq!(s, owned.get_str());
                s?;
            }
            let t = r.get_u64();
            assert_eq!(t, owned.get_u64());
            t?;
            let got = r.get_f64s::<Vec<f64>>().map(|floats| out = floats);
            assert_eq!(got.is_ok(), owned.get_f64_slice().is_ok());
            got
        })();
        prop_assert!(out.len() * 8 <= payload.len());
        if read.is_ok() {
            prop_assert_eq!(r.remaining(), owned.remaining());
        }

        // A prefix that lies about the payload is refused outright.
        frame[0] = frame[0].wrapping_add(1);
        prop_assert!(FrameReader::new(&frame).is_err());
        prop_assert!(MessageReader::new(Bytes::from(frame)).is_err());
    }
}

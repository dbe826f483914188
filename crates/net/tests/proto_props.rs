//! Wire-protocol robustness properties.
//!
//! The decoder is the server's attack surface: it must never panic, hang
//! or over-allocate on arbitrary, truncated or oversized byte streams,
//! and a protocol-version mismatch must fail the handshake with a clean
//! typed error — not silence.

use std::io::Cursor;
use std::sync::Arc;

use graql_core::SessionOutput;
use graql_net::frame::{read_frame, write_frame, FrameRead, MAX_FRAME};
use graql_net::proto::{self, Msg, TableAssembler, BATCH_ROWS, PROTO_VERSION};
use graql_table::ops::{self, OpCtx, SortKey};
use graql_table::{BatchColumn, BitSet, ColumnBatch, PhysExpr, Table, TableSchema};
use graql_types::failpoints::Faults;
use graql_types::{CmpOp, DataType, Date, GraqlError, Value};
use proptest::prelude::*;

/// A table that exercises every corner of the column-batch frame: nulls
/// in every type, an all-null column of each width, empty and multi-byte
/// strings, a low-cardinality column beside one whose distinct values
/// keep arriving batch after batch, `i64::MIN`/`MAX`, float specials by
/// bit pattern, and integer literals widened into the float column.
fn corner_table(seed: u64, n_rows: usize) -> Table {
    let schema = TableSchema::of(&[
        ("key", DataType::Varchar(24)),
        ("tag", DataType::Varchar(8)),
        ("n", DataType::Integer),
        ("x", DataType::Float),
        ("d", DataType::Date),
        ("no_s", DataType::Varchar(4)),
        ("no_n", DataType::Integer),
    ]);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let floats = [
        f64::NAN.to_bits(),
        0x7ff0_0000_0000_0001, // a signalling NaN with a payload
        (-0.0f64).to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        f64::MIN_POSITIVE.to_bits(),
    ];
    Table::from_rows(
        schema,
        (0..n_rows).map(|i| {
            let r = next();
            let null = |bit: u32| (r >> bit) & 7 == 0;
            let or_null = |bit: u32, v: Value| if null(bit) { Value::Null } else { v };
            vec![
                or_null(
                    0,
                    match r % 11 {
                        0 => Value::str(""),
                        1 => Value::str(format!("é日本{i}")),
                        _ => Value::str(format!("k{i}-{}", r % 97)),
                    },
                ),
                or_null(3, Value::str(["", "a", "bb"][(r >> 20) as usize % 3])),
                or_null(
                    6,
                    match r % 5 {
                        0 => Value::Int(i64::MIN),
                        1 => Value::Int(i64::MAX),
                        _ => Value::Int(r as i64),
                    },
                ),
                or_null(
                    9,
                    match r % 4 {
                        0 => {
                            Value::Float(f64::from_bits(floats[(r >> 30) as usize % floats.len()]))
                        }
                        1 => Value::Int((r >> 40) as i64), // widened on the way in
                        _ => Value::Float(f64::from_bits(r)),
                    },
                ),
                or_null(12, Value::Date(Date((r >> 16) as i32 % 200_000))),
                Value::Null,
                Value::Null,
            ]
        }),
    )
    .unwrap()
}

/// Decodes a reply's frames the way the client does.
fn assemble(frames: &[Vec<u8>]) -> graql_types::Result<Table> {
    let mut asm: Option<TableAssembler> = None;
    for f in frames {
        match proto::decode_tagged(f)?.1 {
            Msg::TableHeader { cols } => asm = Some(TableAssembler::new(&cols)?),
            Msg::TableRows { rows } => asm.as_mut().expect("header first").push_rows(&rows)?,
            Msg::TableEnd => return Ok(asm.take().expect("header first").finish()),
            other => panic!("not a table stream: {other:?}"),
        }
    }
    panic!("table stream without an end")
}

/// Cell identity with floats compared by bit pattern (NaN ≠ NaN, and
/// -0.0 = 0.0, under `==`).
fn same_cells(a: &Table, b: &Table) -> bool {
    let bits = |v: Value| match v {
        Value::Float(f) => Value::Int(f.to_bits() as i64),
        other => other,
    };
    a.n_rows() == b.n_rows()
        && a.schema() == b.schema()
        && a.iter_rows()
            .zip(b.iter_rows())
            .all(|(x, y)| x.into_iter().map(bits).eq(y.into_iter().map(bits)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes through the frame reader: parses, errors, or
    /// reports a clean close — never a panic, and never an allocation
    /// above the frame cap.
    #[test]
    fn frame_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = Cursor::new(bytes);
        loop {
            match read_frame(&mut r, 1024, &Faults::default()) {
                Ok(FrameRead::Frame(p)) => prop_assert!(p.len() <= 1024),
                Ok(FrameRead::Closed) => break,
                Ok(FrameRead::TimedOut) => break, // not possible on Cursor, but fine
                Err(_) => break,
            }
        }
    }

    /// Arbitrary payloads through the message decoder never panic.
    #[test]
    fn msg_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = proto::decode(&bytes);
    }

    /// Arbitrary payloads through the v5 tagged-frame decoder (request
    /// id prefix + message) never panic either.
    #[test]
    fn tagged_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = proto::decode_tagged(&bytes);
    }

    /// Tag-led payloads (valid first byte, arbitrary rest) never panic —
    /// denser coverage of each variant's field decoding.
    #[test]
    fn tagged_garbage_never_panics(
        tag in prop_oneof![0u8..6, 16u8..29],
        rest in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&rest);
        let _ = proto::decode(&bytes);
    }

    /// Every truncation of every valid encoding errors instead of
    /// producing a message or panicking.
    #[test]
    fn truncated_valid_messages_error(
        user in "[a-z]{0,12}",
        ir in proptest::collection::vec(any::<u8>(), 0..40),
        cut_frac in 0.0f64..1.0,
    ) {
        for msg in [
            Msg::Hello { proto: PROTO_VERSION, user: user.clone() },
            Msg::Submit { ir: ir.clone() },
            Msg::Check { text: user.clone() },
        ] {
            let blob = proto::encode(&msg);
            let cut = ((blob.len() as f64) * cut_frac) as usize;
            if cut < blob.len() {
                prop_assert!(proto::decode(&blob[..cut]).is_err());
            }
        }
    }

    /// A declared frame length over the cap is rejected before any
    /// payload is read (or allocated), whatever the length bytes say.
    #[test]
    fn oversized_declared_lengths_rejected(len in 1025u32..u32::MAX) {
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        let err = read_frame(&mut Cursor::new(buf), 1024, &Faults::default()).unwrap_err();
        prop_assert!(err.to_string().contains("exceeds"));
    }

    /// encode → frame → unframe → decode is the identity for handshake
    /// messages with arbitrary field content.
    #[test]
    fn hello_round_trips_through_framing(proto_v in any::<u16>(), user in "[ -~]{0,40}") {
        let msg = Msg::Hello { proto: proto_v, user };
        let mut buf = Vec::new();
        write_frame(&mut buf, &proto::encode(&msg), MAX_FRAME, &Faults::default()).unwrap();
        let FrameRead::Frame(p) = read_frame(&mut Cursor::new(buf), MAX_FRAME, &Faults::default()).unwrap() else {
            panic!("expected a frame");
        };
        prop_assert_eq!(proto::decode(&p).unwrap(), msg);
    }
}

proptest! {
    // The default configuration, so `PROPTEST_CASES` sets the depth (the
    // fault-matrix CI job raises it).

    /// A table → `output_frames` → `decode_tagged` → `TableAssembler` is
    /// the identity, cell for cell (floats by bit pattern) and render for
    /// render, at every batch boundary.
    #[test]
    fn column_batches_round_trip(
        seed in any::<u64>(),
        n_rows in prop_oneof![
            Just(0usize), Just(1), Just(BATCH_ROWS - 1), Just(BATCH_ROWS),
            Just(BATCH_ROWS + 1), Just(2 * BATCH_ROWS + 1), 0usize..1200
        ],
    ) {
        let t = corner_table(seed, n_rows);
        let frames = proto::output_frames(seed, &SessionOutput::Table(t.clone()));
        prop_assert_eq!(frames.len(), 2 + n_rows.div_ceil(BATCH_ROWS));
        for f in &frames {
            prop_assert_eq!(proto::decode_tagged(f).unwrap().0, seed);
        }
        let back = assemble(&frames).unwrap();
        prop_assert!(same_cells(&t, &back));
        prop_assert_eq!(t.render(), back.render());
        // The distinct keys keep coming: every full batch brings its own
        // dictionary page, and none repeats an earlier entry.
        let mut keys = std::collections::HashSet::new();
        for f in &frames[1..frames.len() - 1] {
            let Msg::TableRows { rows } = proto::decode_tagged(f).unwrap().1 else {
                panic!("rows between header and end");
            };
            let BatchColumn::Str { page, ends, .. } = &rows.columns[0] else {
                panic!("column 0 is varchar");
            };
            prop_assert!(rows.n_rows < BATCH_ROWS || !ends.is_empty());
            for key in graql_table::batch::page_entries(page, ends) {
                prop_assert!(keys.insert(key.to_string()), "{:?} sent twice", key);
            }
        }
    }

    /// A subset made by filter, sort and top n shares the string
    /// dictionaries of the table it came from, which hold far more strings
    /// than the subset uses. Its stream is still the identity, and its
    /// pages carry exactly the subset's distinct non-null strings: no
    /// unused entry of a shared dictionary crosses the wire.
    #[test]
    fn column_batches_of_shared_dictionaries_round_trip(
        seed in any::<u64>(),
        n_rows in 600usize..1200,
        threshold in any::<i64>(),
        keep in prop_oneof![0usize..8, 0usize..2 * BATCH_ROWS + 1],
    ) {
        let base = corner_table(seed, n_rows);
        let cx = OpCtx::default();
        let every: Vec<usize> = (0..base.n_cols()).collect();
        let at_least = PhysExpr::cmp_col_const(2, CmpOp::Ge, Value::Int(threshold));
        let hits = ops::filter(&base, &at_least, &every, &cx).unwrap();
        let sorted = ops::sort(&hits, &[SortKey::desc(3), SortKey::asc(0)], &cx).unwrap();
        let t = ops::top_n(&sorted, keep, &cx);
        let strs = [0, 1, 5];
        for c in strs {
            let (shared, source) = (t.column(c).str_dict(), base.column(c).str_dict());
            prop_assert!(Arc::ptr_eq(shared.unwrap(), source.unwrap()));
        }

        let frames = proto::output_frames(seed, &SessionOutput::Table(t.clone()));
        let back = assemble(&frames).unwrap();
        prop_assert!(same_cells(&t, &back));
        prop_assert_eq!(t.render(), back.render());
        let mut sent = 0;
        for f in &frames[1..frames.len() - 1] {
            let Msg::TableRows { rows } = proto::decode_tagged(f).unwrap().1 else {
                panic!("rows between header and end");
            };
            for c in strs {
                let BatchColumn::Str { ends, .. } = &rows.columns[c] else {
                    panic!("column {c} is varchar");
                };
                sent += ends.len();
            }
        }
        let used: usize = strs
            .iter()
            .map(|&c| {
                let col = t.column(c);
                let distinct: std::collections::HashSet<Value> =
                    (0..t.n_rows()).map(|i| col.get(i)).filter(|v| !v.is_null()).collect();
                distinct.len()
            })
            .sum();
        prop_assert_eq!(sent, used);
    }

    /// Every truncation of a batch frame is an error, and a frame with
    /// one bit flipped decodes and assembles to a table or to an error —
    /// never a panic — whatever it now claims about counts and codes.
    #[test]
    fn damaged_column_batches_error_cleanly(
        seed in any::<u64>(),
        n_rows in 1usize..700,
        hits in proptest::collection::vec(any::<u64>(), 12),
    ) {
        let t = corner_table(seed, n_rows);
        let frames = proto::output_frames(1, &SessionOutput::Table(t));
        let victim = 1 + (seed as usize) % (frames.len() - 2);
        for &h in &hits {
            let cut = h as usize % frames[victim].len();
            prop_assert!(proto::decode_tagged(&frames[victim][..cut]).is_err(), "cut {}", cut);

            let mut damaged = frames.clone();
            let bit = h as usize % (frames[victim].len() * 8);
            damaged[victim][bit / 8] ^= 1 << (bit % 8);
            if let Ok(table) = assemble(&damaged) {
                // Whatever was accepted must be a table every cell of
                // which can be read.
                prop_assert_eq!(table.iter_rows().count(), table.n_rows());
            }
        }
    }
}

/// What the batch decoder and the assembler refuse, each with a typed
/// `Net` error: counts no frame of that size could hold (before anything
/// is allocated for them), bad UTF-8, and batches that disagree with the
/// header, with themselves or with the dictionary so far.
#[test]
fn malformed_column_batches_are_typed_net_errors() {
    fn net(r: graql_types::Result<impl std::fmt::Debug>) -> String {
        match r {
            Err(GraqlError::Net(e)) => e.to_string(),
            other => panic!("expected a Net error, got {other:?}"),
        }
    }
    let strs = |page: &str, ends: Vec<u32>, codes: Vec<u32>| {
        let nulls = BitSet::new(codes.len());
        Msg::TableRows {
            rows: ColumnBatch {
                n_rows: codes.len(),
                columns: vec![BatchColumn::Str {
                    page: page.into(),
                    ends,
                    codes,
                    nulls,
                }],
            },
        }
    };
    let header = [("s".to_string(), DataType::Varchar(8))];
    let push = |msg: &Msg| {
        let mut asm = TableAssembler::new(&header).unwrap();
        let Msg::TableRows { rows } = msg else {
            unreachable!()
        };
        asm.push_rows(rows).map(|()| asm.finish().n_rows())
    };

    // The encoder's own frame is fine.
    let good = strs("abc", vec![1, 3], vec![0, 1, 1]);
    assert_eq!(proto::decode(&proto::encode(&good)).unwrap(), good);
    assert_eq!(push(&good).unwrap(), 3);

    // Tag 21, then varint n_rows = u32::MAX and one column: no 16 GiB
    // vector is attempted for a 9-byte frame.
    net(proto::decode(&[
        21, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 0, 0, 0,
    ]));
    // More columns, or more dictionary entries, than bytes left.
    net(proto::decode(&[21, 1, 0xff, 0x7f, 0]));
    net(proto::decode(&[21, 1, 1, 2, 0xff, 0xff, 0x03, 0, 0, 0, 0]));
    // Rows but no columns to hold them.
    net(proto::decode(&[21, 5, 0]));
    // An unknown column kind.
    net(proto::decode(&[21, 0, 1, 9]));

    // Invalid UTF-8 in a dictionary page.
    let mut blob = proto::encode(&good);
    let at = blob.windows(3).position(|w| w == b"abc").unwrap();
    blob[at] = 0xff;
    assert!(net(proto::decode(&blob)).contains("UTF-8"));

    // A code at or past the end of the dictionary; a non-null row over
    // an empty one.
    assert!(net(push(&strs("abc", vec![1, 3], vec![0, 2]))).contains("code"));
    assert!(net(push(&strs("", vec![], vec![0]))).contains("code"));
    // A page whose entries split a character or stop short of it.
    net(push(&strs("é", vec![1, 2], vec![0])));
    net(push(&strs("abc", vec![2], vec![0])));
    // A column shorter than the batch says, or than its null mask.
    let Msg::TableRows { rows: mut ragged } = good.clone() else {
        unreachable!()
    };
    ragged.n_rows = 4;
    assert!(net(push(&Msg::TableRows { rows: ragged })).contains("row count"));
    // A column type, or a column count, the header did not announce.
    let ints = Msg::TableRows {
        rows: ColumnBatch {
            n_rows: 1,
            columns: vec![BatchColumn::Int {
                data: vec![7],
                nulls: BitSet::new(1),
            }],
        },
    };
    assert!(net(push(&ints)).contains("schema"));
    let Msg::TableRows { rows: mut wide } = good.clone() else {
        unreachable!()
    };
    wide.columns.push(wide.columns[0].clone());
    net(push(&Msg::TableRows { rows: wide }));
}

/// A client speaking a different protocol version gets a typed error
/// frame and a closed connection — no hang, no silent close. Exercised
/// against a real socket server.
#[test]
fn version_mismatch_rejected_cleanly() {
    use graql_core::Server;
    use graql_net::{serve, ServeOptions};
    use std::net::TcpStream;
    use std::time::Duration;

    let mut net = serve(
        Server::new(graql_core::Database::new()),
        ServeOptions::default(),
    )
    .unwrap();
    let stream = TcpStream::connect(net.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let hello = proto::encode_tagged(
        7,
        &Msg::Hello {
            proto: PROTO_VERSION + 1,
            user: "admin".to_string(),
        },
    );
    let mut w = &stream;
    write_frame(&mut w, &hello, MAX_FRAME, &Faults::default()).unwrap();

    let mut r = &stream;
    let FrameRead::Frame(p) = read_frame(&mut r, MAX_FRAME, &Faults::default()).unwrap() else {
        panic!("expected an error frame, not silence");
    };
    match proto::decode_tagged(&p).unwrap() {
        (id, Msg::Error { message, .. }) => {
            assert_eq!(id, 7, "the rejection echoes the Hello's request id");
            assert!(message.contains("version mismatch"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // The server closes after rejecting; the next read sees EOF, not a hang.
    let mut r = &stream;
    assert!(matches!(
        read_frame(&mut r, MAX_FRAME, &Faults::default()),
        Ok(FrameRead::Closed) | Err(_)
    ));
    net.shutdown();
}

/// Junk that is not even a Hello (wrong magic) is rejected with an error
/// frame too.
#[test]
fn non_graql_client_rejected() {
    use graql_core::Server;
    use graql_net::{serve, ServeOptions};
    use std::net::TcpStream;
    use std::time::Duration;

    let mut net = serve(
        Server::new(graql_core::Database::new()),
        ServeOptions::default(),
    )
    .unwrap();
    let stream = TcpStream::connect(net.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // A frame with a request-id prefix whose payload opens with tag 0
    // but the wrong magic.
    let mut w = &stream;
    write_frame(
        &mut w,
        b"\x01\x00\x00\x00\x00\x00\x00\x00\x00XXXX\x01\x00",
        MAX_FRAME,
        &Faults::default(),
    )
    .unwrap();

    // The connection errors out server-side; we observe close or error,
    // never a hang (read timeout above bounds the wait).
    let mut r = &stream;
    match read_frame(&mut r, MAX_FRAME, &Faults::default()) {
        Ok(FrameRead::Frame(_)) | Ok(FrameRead::Closed) | Err(_) => {}
        Ok(FrameRead::TimedOut) => panic!("server hung on a bad handshake"),
    }
    net.shutdown();
}

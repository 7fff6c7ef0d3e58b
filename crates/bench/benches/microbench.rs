//! Criterion micro-benchmarks: the per-packet datapath costs.
//!
//! These measure the *implementation*, not the simulated network:
//! 8b/10b coding rates, MicroPacket codec throughput, CRC, and the
//! host seqlock — the pieces a real AmpNet driver would run per packet.

use ampnet_cache::host::SeqLockBuffer;
use ampnet_packet::{build, DmaCtrl, MicroPacket};
use ampnet_phy::{crc32, Decoder, Encoder, Symbol};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

fn bench_8b10b(c: &mut Criterion) {
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 131) as u8).collect();
    let mut g = c.benchmark_group("8b10b");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("encode_4k", |b| {
        b.iter_batched(
            || (Encoder::new(), Vec::with_capacity(data.len())),
            |(mut enc, mut out)| {
                enc.encode_bytes(&data, &mut out);
                black_box(out)
            },
            BatchSize::SmallInput,
        )
    });
    let mut enc = Encoder::new();
    let mut groups = Vec::new();
    enc.encode_bytes(&data, &mut groups);
    g.bench_function("decode_4k", |b| {
        b.iter_batched(
            Decoder::new,
            |mut dec| {
                for &grp in &groups {
                    black_box(dec.decode(grp).unwrap());
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("encode_single_symbol", |b| {
        let mut enc = Encoder::new();
        b.iter(|| black_box(enc.encode(Symbol::Data(black_box(0xA5))).unwrap()))
    });
    g.finish();
}

fn bench_packet_codec(c: &mut Criterion) {
    let fixed = build::data(1, 2, 3, [9; 8]);
    let dma = build::dma(
        1,
        2,
        3,
        DmaCtrl { channel: 5, region: 7, offset: 4096, len: 0 },
        &[0xCD; 64],
    )
    .unwrap();
    let (mut fixed_bytes, mut dma_bytes) = (Vec::new(), Vec::new());
    fixed.encode(&mut fixed_bytes);
    dma.encode(&mut dma_bytes);
    let mut g = c.benchmark_group("micropacket");
    // Encode into a caller-owned word buffer (the data-plane's single
    // per-packet encode) and decode to a borrowing view; the
    // byte-level `decode` legs time the owning reference codec.
    let mut slot = [0u32; 19];
    g.bench_function("encode_into_fixed", |b| {
        b.iter(|| black_box(black_box(&fixed).encode_into(black_box(&mut slot)).unwrap()))
    });
    g.bench_function("decode_fixed", |b| {
        b.iter(|| black_box(MicroPacket::decode(black_box(&fixed_bytes)).unwrap()))
    });
    g.bench_function("decode_dma64", |b| {
        b.iter(|| black_box(MicroPacket::decode(black_box(&dma_bytes)).unwrap()))
    });
    let n = dma.encode_into(&mut slot).unwrap();
    let words = slot[..n].to_vec();
    g.bench_function("encode_into_dma64", |b| {
        b.iter(|| black_box(black_box(&dma).encode_into(black_box(&mut slot)).unwrap()))
    });
    g.bench_function("decode_ref_dma64", |b| {
        b.iter(|| black_box(MicroPacket::decode_ref(black_box(&words)).unwrap()))
    });
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let data = vec![0x5Au8; 64 * 1024];
    let mut g = c.benchmark_group("crc32");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("64k", |b| b.iter(|| black_box(crc32(black_box(&data)))));
    g.finish();
}

fn bench_host_seqlock(c: &mut Criterion) {
    let buf = SeqLockBuffer::new(32);
    buf.write(&[1; 32]);
    let mut g = c.benchmark_group("host_seqlock");
    g.bench_function("write_32_words", |b| {
        let vals = [7u64; 32];
        b.iter(|| buf.write(black_box(&vals)))
    });
    g.bench_function("read_32_words", |b| {
        let mut out = [0u64; 32];
        b.iter(|| black_box(buf.read(black_box(&mut out))))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_8b10b, bench_packet_codec, bench_crc, bench_host_seqlock
}
criterion_main!(benches);

package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"rmp/internal/page"
	"rmp/internal/rs"
	"rmp/internal/wire"
)

// This file measures the zero-copy, allocation-free hot path: the
// word-wide XOR kernel against the byte-loop reference (acceptance:
// >= 4x), the nibble-table RS encoder, and the mux frame codec —
// per-frame Encode (one fresh buffer per frame) against the batching
// FrameWriter writev path, and the pooled decoder (zero steady-state
// allocations, enforced at runtime by the alloc gates in
// internal/client and statically by rmpvet -escapes). The
// machine-readable result lands in BENCH_hotpath.json
// so CI can hold the kernel speedup and zero-alloc claims over time.

// HotpathStats is the machine-readable benchmark result.
type HotpathStats struct {
	// XOR kernels, MB/s over 8 KB pages.
	XORWordsMBps float64 `json:"xor_words_mbps"`
	XORBytesMBps float64 `json:"xor_bytes_mbps"`
	// XORSpeedup is words/bytes (acceptance: >= 4).
	XORSpeedup float64 `json:"xor_speedup"`

	// RSEncodeMBps is RS(4,2) encode throughput over the data bytes.
	RSEncodeMBps float64 `json:"rs_encode_mbps"`

	// Frame output: per-frame Encode (allocating baseline) vs the
	// batching FrameWriter (headers encoded into reused scratch,
	// payloads shipped by reference through one writev vector).
	EncodeFramesPerSec      float64 `json:"encode_frames_per_sec"`
	EncodeAllocsPerFrame    float64 `json:"encode_allocs_per_frame"`
	EncodeBytesPerFrame     float64 `json:"encode_bytes_per_frame"`
	FrameWriterFramesPerSec float64 `json:"framewriter_frames_per_sec"`
	FrameWriterAllocsPerOp  float64 `json:"framewriter_allocs_per_frame"`
	FrameWriterBytesPerOp   float64 `json:"framewriter_bytes_per_frame"`
	FrameWriterBatch        int     `json:"framewriter_batch"`

	// Frame input: DecodePooled + Recycle (pooled frame buffer and
	// Msg).
	DecodePooledFramesPerSec float64 `json:"decode_pooled_frames_per_sec"`
	DecodePooledAllocsPerOp  float64 `json:"decode_pooled_allocs_per_frame"`
	DecodePooledBytesPerOp   float64 `json:"decode_pooled_bytes_per_frame"`

	// Raw buffer sourcing: pooled Get/Put round trip vs a fresh make
	// per page (the before/after of pooling itself), ns/op.
	PooledGetPutNanos float64 `json:"pooled_getput_ns"`
	MakeBufNanos      float64 `json:"make_buf_ns"`
}

// hotpathSink keeps make-based benchmark allocations observable.
var hotpathSink []byte

// Hotpath runs the benchmark and writes BENCH_hotpath.json to the
// current directory.
func Hotpath() (*Table, error) {
	t, _, err := hotpathTo("BENCH_hotpath.json")
	return t, err
}

// hotpathTo is Hotpath with an explicit JSON destination ("" skips
// the file), returning the stats for assertions.
func hotpathTo(jsonPath string) (*Table, *HotpathStats, error) {
	st := &HotpathStats{FrameWriterBatch: 16}

	mbps := func(r testing.BenchmarkResult) float64 {
		if r.T <= 0 {
			return 0
		}
		return float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e6
	}
	fps := func(r testing.BenchmarkResult) float64 {
		if r.T <= 0 {
			return 0
		}
		return float64(r.N) / r.T.Seconds()
	}

	// --- XOR kernels -------------------------------------------------
	dst, src := page.NewBuf(), page.NewBuf()
	dst.Fill(3)
	src.Fill(5)
	words := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(page.Size)
		for i := 0; i < b.N; i++ {
			page.XORWords(dst, src)
		}
	})
	bytesRef := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(page.Size)
		for i := 0; i < b.N; i++ {
			page.XORBytesRef(dst, src)
		}
	})
	st.XORWordsMBps = mbps(words)
	st.XORBytesMBps = mbps(bytesRef)
	if st.XORBytesMBps > 0 {
		st.XORSpeedup = st.XORWordsMBps / st.XORBytesMBps
	}

	// --- RS(4,2) encode ----------------------------------------------
	code, err := rs.New(4, 2)
	if err != nil {
		return nil, nil, err
	}
	dataShards := make([][]byte, 4)
	for i := range dataShards {
		b := page.NewBuf()
		b.Fill(uint64(i + 1))
		dataShards[i] = b
	}
	parityShards := [][]byte{page.NewBuf(), page.NewBuf()}
	rsRes := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(4 * page.Size)
		for i := 0; i < b.N; i++ {
			if err := code.Encode(dataShards, parityShards); err != nil {
				b.Fatal(err)
			}
		}
	})
	st.RSEncodeMBps = mbps(rsRes)

	// --- frame output: Encode vs FrameWriter -------------------------
	payload := page.NewBuf()
	payload.Fill(9)
	msg := (&wire.Msg{Version: wire.Version2, ID: 7, Type: wire.TPageOut, Key: 42, Data: payload}).WithChecksum()
	encRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := wire.Encode(io.Discard, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	st.EncodeFramesPerSec = fps(encRes)
	st.EncodeAllocsPerFrame = float64(encRes.AllocsPerOp())
	st.EncodeBytesPerFrame = float64(encRes.AllocedBytesPerOp())

	fw := wire.NewFrameWriter(io.Discard)
	fwRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fw.Queue(msg); err != nil {
				b.Fatal(err)
			}
			if fw.Frames() == st.FrameWriterBatch {
				if err := fw.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := fw.Flush(); err != nil {
			b.Fatal(err)
		}
	})
	st.FrameWriterFramesPerSec = fps(fwRes)
	st.FrameWriterAllocsPerOp = float64(fwRes.AllocsPerOp())
	st.FrameWriterBytesPerOp = float64(fwRes.AllocedBytesPerOp())

	// --- frame input: DecodePooled ------------------------------------
	var raw bytes.Buffer
	if err := wire.Encode(&raw, msg); err != nil {
		return nil, nil, err
	}
	r := bytes.NewReader(raw.Bytes())
	decPoolRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(raw.Bytes())
			m, err := wire.DecodePooled(r)
			if err != nil {
				b.Fatal(err)
			}
			wire.Recycle(m)
		}
	})
	st.DecodePooledFramesPerSec = fps(decPoolRes)
	st.DecodePooledAllocsPerOp = float64(decPoolRes.AllocsPerOp())
	st.DecodePooledBytesPerOp = float64(decPoolRes.AllocedBytesPerOp())

	// --- buffer sourcing: pool round trip vs make --------------------
	poolRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf := page.Get()
			page.Put(buf)
		}
	})
	makeRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hotpathSink = make([]byte, page.Size)
		}
	})
	st.PooledGetPutNanos = float64(poolRes.NsPerOp())
	st.MakeBufNanos = float64(makeRes.NsPerOp())

	if jsonPath != "" {
		blob, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return nil, nil, err
		}
	}

	t := &Table{
		ID:     "HOTPATH",
		Title:  "Zero-copy hot path: kernels, frame codec, and buffer pooling",
		Header: []string{"path", "throughput", "allocs/op", "B/op"},
		Rows: [][]string{
			{"XOR byte loop (ref)", fmt.Sprintf("%.0f MB/s", st.XORBytesMBps), "0", "0"},
			{"XOR word kernel", fmt.Sprintf("%.0f MB/s", st.XORWordsMBps), "0", "0"},
			{"RS(4,2) encode", fmt.Sprintf("%.0f MB/s", st.RSEncodeMBps), "0", "0"},
			{"per-frame Encode", fmt.Sprintf("%.0f frames/s", st.EncodeFramesPerSec),
				fmt.Sprintf("%.0f", st.EncodeAllocsPerFrame), fmt.Sprintf("%.0f", st.EncodeBytesPerFrame)},
			{"FrameWriter writev", fmt.Sprintf("%.0f frames/s", st.FrameWriterFramesPerSec),
				fmt.Sprintf("%.0f", st.FrameWriterAllocsPerOp), fmt.Sprintf("%.0f", st.FrameWriterBytesPerOp)},
			{"DecodePooled+Recycle", fmt.Sprintf("%.0f frames/s", st.DecodePooledFramesPerSec),
				fmt.Sprintf("%.0f", st.DecodePooledAllocsPerOp), fmt.Sprintf("%.0f", st.DecodePooledBytesPerOp)},
			{"pool Get/Put", fmt.Sprintf("%.1f ns/op", st.PooledGetPutNanos), "0", "0"},
			{"make 8 KB page", fmt.Sprintf("%.1f ns/op", st.MakeBufNanos), "1", fmt.Sprint(page.Size)},
		},
		Notes: []string{
			fmt.Sprintf("word XOR kernel is %.1fx the byte loop (acceptance: >= 4x)", st.XORSpeedup),
			"FrameWriter ships header+payload by reference through one writev vector; payload bytes are never copied into scratch",
			"steady-state mux encode and demux decode run at 0 allocs/op (gated by AllocsPerRun tests and rmpvet -escapes)",
		},
	}
	if jsonPath != "" {
		t.Notes = append(t.Notes, "machine-readable result written to "+jsonPath)
	}
	return t, st, nil
}

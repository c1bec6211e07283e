package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"delorean/internal/bulksc"
	"delorean/internal/dlog"
	"delorean/internal/lz77"
	"delorean/internal/stratifier"
)

func rebuildStratified(nprocs, maxChunk int, rows [][]int) *stratifier.StratifiedLog {
	return stratifier.Rebuild(nprocs, maxChunk, rows)
}

// Recording serialization: a recording written during one session can be
// replayed in another (or on another machine). The container stores the
// logs in their bit-packed wire formats plus the system checkpoint.
//
// Layout (little-endian):
//
//	magic "DLRN" | version u16 | mode u8 | nprocs u16 | chunkSize u32
//	fingerprint u64 | finalMemHash u64 | per-proc chain digests (nprocs x u64)
//	stats: insts u64, chunks u64, cycles u64
//	initial memory: count u32, then (addr u32, value u64) pairs in
//	  ascending address order
//	PI log: present u8 [, entries u32, bit-length u32, packed bytes]
//	per proc: CS log (entry count u32, bit-length u32, packed)
//	per proc (Order&Size): size log (count u32, bit-length u32, packed)
//	per proc: interrupt log, I/O log
//	DMA log, slot log
//	checkpoints (v3): count u32, then per checkpoint the cut metadata,
//	  fingerprints, per-processor resume states, and the memory delta as
//	  an LZ77-compressed (addr u32, value u64) pair stream in ascending
//	  address order
//	stratified log (optional)
//
// Version history: v1 had no per-processor chain digests; v2 added them
// for replay divergence localization; v3 appended the delta-encoded
// checkpoint section so serialized recordings replay segmented. v4
// (framev4.go) keeps the v3 header through the stats words but frames
// every log shard independently (CRC-checked, individually compressed
// frames) so save and load spread across workers. The layout above is
// the legacy v2/v3 body, which is read-only: WriteTo emits v4, and
// v2/v3/v4 files all load.
const (
	recMagic   = "DLRN"
	recVersion = 3

	// maxChunkSize bounds the header's chunk size on load: large enough
	// for any plausible configuration (the paper uses 2000), small
	// enough that the CS/size log entry widths stay well-formed.
	maxChunkSize = 1 << 20
)

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) write(p []byte) {
	if c.err != nil {
		return
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
}

func (c *countingWriter) u8(v uint8) { c.write([]byte{v}) }
func (c *countingWriter) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	c.write(b[:])
}
func (c *countingWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.write(b[:])
}
func (c *countingWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.write(b[:])
}

func (c *countingWriter) packed(buf []byte, bits int) {
	c.u32(uint32(bits))
	c.write(buf[:(bits+7)/8])
}

// WriteTo serializes the recording in the current (v4) format. It
// implements io.WriterTo. Equivalent to WriteToParallel with the
// host-default worker count; output bytes are identical either way.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	return r.WriteToParallel(w, 0)
}

// Checkpoint flag bits (one byte per processor state).
const (
	cpHalted      = 1 << 0
	cpInIntr      = 1 << 1
	cpIntrUrgent  = 1 << 2
	cpDone        = 1 << 3
	cpPendingIntr = 1 << 4
	cpPendUrgent  = 1 << 5
)

// writeCheckpointBody serializes one checkpoint: everything segmented
// replay needs to resume at its cut. Memory images are stored as the
// engine's deltas — only the words that changed during the interval —
// which the frame's LZ77 then squeezes further; a full image per
// checkpoint would duplicate the entire footprint at every cut.
func (r *Recording) writeCheckpointBody(c *countingWriter, cp *IntervalCheckpoint) {
	c.u64(cp.Slot)
	c.u16(uint16(cp.TokenAt + 1)) // -1 (unordered) encodes as 0
	c.u64(cp.Fingerprint)
	c.u64(cp.IntervalFingerprint)
	writeChains := func(chains []uint64) {
		if len(chains) == r.NProcs {
			c.u8(1)
			for _, ch := range chains {
				c.u64(ch)
			}
		} else {
			c.u8(0)
		}
	}
	writeChains(cp.ProcChains)
	writeChains(cp.IntervalChains)

	for p := range cp.Procs {
		pc := &cp.Procs[p]
		var flags uint8
		if pc.State.Halted {
			flags |= cpHalted
		}
		if pc.State.InIntr {
			flags |= cpInIntr
		}
		if pc.State.IntrUrgent {
			flags |= cpIntrUrgent
		}
		if pc.Done {
			flags |= cpDone
		}
		if pc.PendingIntr != nil {
			flags |= cpPendingIntr
			if pc.PendingIntr.Urgent {
				flags |= cpPendUrgent
			}
		}
		c.u8(flags)
		c.u64(uint64(pc.State.PC))
		for _, v := range pc.State.Reg {
			c.u64(uint64(v))
		}
		c.u64(uint64(pc.State.IntrPC))
		for _, v := range pc.State.IntrReg {
			c.u64(uint64(v))
		}
		c.u64(pc.NextSeq)
		c.u32(uint32(pc.IOConsumed))
		if pc.PendingIntr != nil {
			c.u64(pc.PendingIntr.Seq)
			c.u64(uint64(pc.PendingIntr.Type))
			c.u64(uint64(pc.PendingIntr.Data))
		}
	}

	// Memory delta: canonical address order. Interval write
	// footprints revisit the same working set, so the pair stream
	// compresses well under the frame's LZ77.
	addrs := make([]uint32, 0, len(cp.MemDelta))
	for a := range cp.MemDelta {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(x, y int) bool { return addrs[x] < addrs[y] })
	raw := make([]byte, 0, 12*len(addrs))
	var pair [12]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint32(pair[0:4], a)
		binary.LittleEndian.PutUint64(pair[4:12], cp.MemDelta[a])
		raw = append(raw, pair[:]...)
	}
	c.u32(uint32(len(addrs)))
	c.u32(uint32(len(raw)))
	c.write(raw)
}

// readCheckpoints parses the v3 checkpoint section.
func (r *Recording) readCheckpoints(d *reader) error {
	count := d.u32()
	r.Checkpoints = make([]IntervalCheckpoint, 0, allocHint(count))
	for i := uint32(0); i < count && d.err == nil; i++ {
		cp, err := r.readCheckpointBody(d, int(i), true)
		if err != nil {
			return err
		}
		if d.err == nil {
			r.Checkpoints = append(r.Checkpoints, cp)
		}
	}
	return nil
}

// readCheckpointBody parses one checkpoint, mirroring writeCheckpointBody.
// compressDelta selects the legacy v3 inline LZ77 memory-delta encoding;
// v4 frames pass false and carry the delta as raw bytes (the frame codec
// compresses the whole payload).
func (r *Recording) readCheckpointBody(d *reader, i int, compressDelta bool) (IntervalCheckpoint, error) {
	var cp IntervalCheckpoint
	cp.Slot = d.u64()
	cp.TokenAt = int(d.u16()) - 1
	cp.Fingerprint = d.u64()
	cp.IntervalFingerprint = d.u64()
	readChains := func() []uint64 {
		if d.u8() != 1 {
			return nil
		}
		chains := make([]uint64, r.NProcs)
		for p := range chains {
			chains[p] = d.u64()
		}
		return chains
	}
	cp.ProcChains = readChains()
	cp.IntervalChains = readChains()

	for p := 0; p < r.NProcs && d.err == nil; p++ {
		var pc bulksc.ProcCheckpoint
		flags := d.u8()
		pc.State.Halted = flags&cpHalted != 0
		pc.State.InIntr = flags&cpInIntr != 0
		pc.State.IntrUrgent = flags&cpIntrUrgent != 0
		pc.Done = flags&cpDone != 0
		pc.State.PC = int(d.u64())
		for k := range pc.State.Reg {
			pc.State.Reg[k] = int64(d.u64())
		}
		pc.State.IntrPC = int(d.u64())
		for k := range pc.State.IntrReg {
			pc.State.IntrReg[k] = int64(d.u64())
		}
		pc.NextSeq = d.u64()
		pc.IOConsumed = int(d.u32())
		if d.err == nil && (pc.State.PC < 0 || pc.State.PC > 1<<31 ||
			pc.State.IntrPC < 0 || pc.State.IntrPC > 1<<31 || pc.IOConsumed < 0) {
			return cp, corrupt("checkpoint %d proc %d has implausible resume state", i, p)
		}
		if flags&cpPendingIntr != 0 {
			pc.PendingIntr = &bulksc.PendingIntr{
				Seq:    d.u64(),
				Type:   int64(d.u64()),
				Data:   int64(d.u64()),
				Urgent: flags&cpPendUrgent != 0,
			}
		}
		cp.Procs = append(cp.Procs, pc)
	}

	words := d.u32()
	var raw []byte
	if compressDelta {
		packed, bits := d.packed()
		if d.err != nil {
			return cp, nil
		}
		var err error
		raw, err = lz77.Decompress(packed, bits)
		if err != nil {
			return cp, corrupt("checkpoint %d memory delta: %v", i, err)
		}
	} else {
		raw = d.bytes(int(d.u32()))
		if d.err != nil {
			return cp, nil
		}
	}
	if len(raw) != 12*int(words) {
		return cp, corrupt("checkpoint %d memory delta holds %d bytes for %d words", i, len(raw), words)
	}
	cp.MemDelta = make(map[uint32]uint64, allocHint(words))
	for off := 0; off+12 <= len(raw); off += 12 {
		a := binary.LittleEndian.Uint32(raw[off : off+4])
		cp.MemDelta[a] = binary.LittleEndian.Uint64(raw[off+4 : off+12])
	}
	return cp, nil
}

// reader decodes little-endian fields from an in-memory container or
// frame payload. The first failed read sticks in err.
type reader struct {
	r   *bytes.Reader
	err error
}

func (d *reader) read(p []byte) {
	if d.err != nil {
		return
	}
	_, d.err = io.ReadFull(d.r, p)
}

func (d *reader) u8() uint8   { var b [1]byte; d.read(b[:]); return b[0] }
func (d *reader) u16() uint16 { var b [2]byte; d.read(b[:]); return binary.LittleEndian.Uint16(b[:]) }
func (d *reader) u32() uint32 { var b [4]byte; d.read(b[:]); return binary.LittleEndian.Uint32(b[:]) }
func (d *reader) u64() uint64 { var b [8]byte; d.read(b[:]); return binary.LittleEndian.Uint64(b[:]) }

// bytes reads n bytes. A length beyond what is left fails before
// allocating, so a lying length field cannot demand a huge buffer.
func (d *reader) bytes(n int) []byte {
	if d.err == nil && n > d.r.Len() {
		d.err = fmt.Errorf("%d bytes declared, %d left: %w", n, d.r.Len(), io.ErrUnexpectedEOF)
	}
	if d.err != nil {
		return nil
	}
	buf := make([]byte, n)
	d.read(buf)
	return buf
}

func (d *reader) packed() ([]byte, int) {
	bits := int(d.u32())
	return d.bytes((bits + 7) / 8), bits
}

// allocHint clamps an untrusted element count to a sane pre-allocation
// size; the actual data is still bounded by the stream, so a lying count
// only costs reallocation, never an absurd up-front allocation.
func allocHint(n uint32) int {
	const limit = 1 << 16
	if n > limit {
		return limit
	}
	return int(n)
}

// ReadRecording deserializes a recording written by WriteTo (any
// supported version: v2, v3, or v4). Malformed input — bad magic,
// truncated stream, implausible lengths, or log contents that fail
// Validate — returns an error wrapping ErrCorruptLog.
func ReadRecording(src io.Reader) (*Recording, error) {
	return ReadRecordingParallel(src, 0)
}

// readHeader parses the common container header — magic through the
// stats words, identical across v2/v3/v4 — returning a recording with
// only the header fields populated plus the container version.
func readHeader(d *reader) (*Recording, uint16, error) {
	var magic [4]byte
	d.read(magic[:])
	if d.err != nil {
		return nil, 0, corrupt("short header: %v", d.err)
	}
	if string(magic[:]) != recMagic {
		return nil, 0, corrupt("not a DeLorean recording (magic %q)", magic)
	}
	version := d.u16()
	if version != 2 && version != recVersion && version != recVersionV4 {
		return nil, 0, corrupt("unsupported recording version %d", version)
	}

	r := &Recording{
		Mode:  Mode(d.u8()),
		DMA:   &dlog.DMALog{},
		Slots: &dlog.SlotLog{},
	}
	r.NProcs = int(d.u16())
	r.ChunkSize = int(d.u32())
	if d.err == nil && (r.NProcs <= 0 || r.NProcs > 1024 || r.ChunkSize <= 0 || r.ChunkSize > maxChunkSize) {
		return nil, 0, corrupt("implausible header (%d procs, chunk %d)", r.NProcs, r.ChunkSize)
	}
	if d.err == nil && (r.Mode < OrderSize || r.Mode > PicoLog) {
		return nil, 0, corrupt("unknown mode %d", int(r.Mode))
	}
	r.Fingerprint = d.u64()
	r.FinalMemHash = d.u64()
	if d.err == nil {
		r.ProcChains = make([]uint64, r.NProcs)
		for p := range r.ProcChains {
			r.ProcChains[p] = d.u64()
		}
	}
	r.Stats.Insts = d.u64()
	r.Stats.Chunks = d.u64()
	r.Stats.Cycles = d.u64()
	r.Stats.Converged = true
	if d.err != nil {
		return nil, 0, corrupt("truncated recording: %v", d.err)
	}
	return r, version, nil
}

// ReadRecordingParallel is ReadRecording with an explicit decode worker
// count for v4 recordings (0: host default, 1: fully sequential; v2/v3
// always decode sequentially). It reads all of src, indexes it
// (IndexRecording), materializes every section and detaches the result
// from the container bytes, so the recording is identical at any worker
// count and retains nothing of src.
func ReadRecordingParallel(src io.Reader, workers int) (*Recording, error) {
	// In-memory sources report their size; reading into one exact
	// allocation spares io.ReadAll's doubling copies.
	var buf bytes.Buffer
	if sized, ok := src.(interface{ Len() int }); ok {
		buf.Grow(sized.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(src); err != nil {
		return nil, corrupt("reading recording: %v", err)
	}
	r, err := IndexRecording(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if err := r.EnsureCheckpoints(workers); err != nil {
		return nil, err
	}
	r.detach()
	return r, nil
}

// readLegacy decodes the body of a v2/v3 container, which carries no
// frame structure; d is positioned just past the common header. The body
// holds v4's log sections inline, in the same order and encoding, so
// readSection parses each one. Presence bytes precede the optional PI
// and stratified logs, and v3 puts its checkpoint section (inline-LZ77
// memory deltas) between the slot and stratified logs.
func readLegacy(d *reader, r *Recording, version uint16) (*Recording, error) {
	var err error
	sections := func(kind uint8, shards int) {
		for s := 0; s < shards && err == nil; s++ {
			err = r.readSection(kind, uint32(s), d)
		}
	}
	sections(frameInitMem, 1)
	if d.u8() == 1 {
		sections(framePI, 1)
	}
	sections(frameCS, r.NProcs)
	if r.Mode == OrderSize {
		sections(frameSizes, r.NProcs)
	}
	sections(frameIntr, r.NProcs)
	sections(frameIO, r.NProcs)
	sections(frameDMA, 1)
	sections(frameSlots, 1)
	if err == nil && version >= 3 {
		err = r.readCheckpoints(d)
	}
	if err == nil && d.u8() == 1 {
		sections(frameStratified, 1)
	}
	if err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, corrupt("truncated recording: %v", d.err)
	}
	if n := d.r.Len(); n != 0 {
		return nil, corrupt("%d bytes of trailing data after recording body", n)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Compact binary trace format — the on-disk twin of the ring slots, so
// a capture round-trips losslessly and cmd/tracecat can summarize,
// convert or audit it offline.
//
// Layout (all little-endian):
//
//	offset size  field
//	0      8     magic "LSTRACE3"
//	8      4     workers (uint32)
//	12     4     depth (uint32)
//	16     8     drops (uint64)
//	24     8     record count (uint64)
//	32     32×n  records: seq, time, key (8 bytes each),
//	             worker (int32), kind, op, aux, flags (1 byte each)

// binaryMagic identifies (and versions) the format. Event records
// store the obs.Event number, so the version changes whenever the event
// numbering does: LSTRACE2 captures predate the removal of the six
// adapt_* events (LSTRACE1 ones that of adapt_rebalance) and would
// decode every later event several slots off.
const binaryMagic = "LSTRACE3"

// recordSize is the on-disk size of one record.
const recordSize = 32

// WriteBinary writes the capture in the compact binary format.
func (c *Capture) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(c.Workers))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(c.Depth))
	binary.LittleEndian.PutUint64(hdr[8:], c.Drops)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(c.Records)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [recordSize]byte
	for _, r := range c.Records {
		binary.LittleEndian.PutUint64(buf[0:], r.Seq)
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.Time))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r.Key))
		binary.LittleEndian.PutUint32(buf[24:], uint32(r.Worker))
		buf[28] = uint8(r.Kind)
		buf[29] = r.Op
		buf[30] = r.Aux
		buf[31] = r.Flags
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a capture previously written by WriteBinary.
func ReadBinary(r io.Reader) (*Capture, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic[:]) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", magic[:], binaryMagic)
	}
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	c := &Capture{
		Workers: int(binary.LittleEndian.Uint32(hdr[0:])),
		Depth:   int(binary.LittleEndian.Uint32(hdr[4:])),
		Drops:   binary.LittleEndian.Uint64(hdr[8:]),
	}
	count := binary.LittleEndian.Uint64(hdr[16:])
	const sanityMax = 1 << 32 // refuse absurd counts before allocating
	if count > sanityMax {
		return nil, fmt.Errorf("trace: record count %d exceeds sanity bound", count)
	}
	c.Records = make([]Record, 0, count)
	var buf [recordSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d of %d: %w", i, count, err)
		}
		rec := Record{
			Seq:    binary.LittleEndian.Uint64(buf[0:]),
			Time:   int64(binary.LittleEndian.Uint64(buf[8:])),
			Key:    int64(binary.LittleEndian.Uint64(buf[16:])),
			Worker: int32(binary.LittleEndian.Uint32(buf[24:])),
			Kind:   Kind(buf[28]),
			Op:     buf[29],
			Aux:    buf[30],
			Flags:  buf[31],
		}
		if rec.Kind == KindInvalid || rec.Kind >= NumKinds {
			return nil, fmt.Errorf("trace: record %d has invalid kind %d", i, rec.Kind)
		}
		c.Records = append(c.Records, rec)
	}
	return c, nil
}

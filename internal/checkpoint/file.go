package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"permcell/internal/vec"
)

// File layout (format version 3):
//
//	magic (8 bytes) | version uint32 | frameCount uint32 |
//	section(Meta) | section(Frame) * frameCount
//
// where each section is
//
//	length uint32 | crc32(payload) uint32 | payload
//
// The Meta payload is gob, so the header keeps its additive-field policy;
// a Frame payload is the fixed layout of codec.go. Versions 1 and 2 are
// read, never written. Their Meta is flat: the identity fields sit beside
// Step where version 3 nests them in the embedded Spec, and gob's by-name
// matching finds a flat field's promoted home, so they decode unchanged.
// Version 1's Frame payloads are gob structs too (frameV1). All integers are little-endian. Truncation surfaces as an
// unexpected-EOF error; any bit flip inside a payload fails that section's
// CRC; a flipped length either fails the CRC of the misframed payload or
// runs off the end of the file. Loading never panics on hostile input and
// never allocates by a count it has not checked against bytes in hand.

// FormatVersion is the format version Encode writes; Decode reads it and
// every earlier one. The policy is strictly additive within a version: new
// Meta fields decode as zero from older files. A breaking layout change
// bumps the version — 3 nested the identity in Meta's embedded Spec, which a
// version-2 reader would decode as zeros — and Load rejects versions it
// does not know rather than misreading them.
const FormatVersion = 3

var magic = [8]byte{'P', 'C', 'C', 'K', 'P', 'T', 0, '\n'}

// Default file names inside a checkpoint directory. Saver.Save rotates the pair:
// the old latest becomes previous, so one corrupted or half-written file
// never strands the run. Temporary files are uniquely named per Save call
// (os.CreateTemp), never a fixed name: two engines checkpointing into the
// same directory from one process must not tear each other's in-flight
// writes. (Sharing a directory still interleaves the latest/previous
// rotation itself — give concurrent runs separate directories, as
// internal/serve does — but a fixed tmp name corrupted the files
// themselves, not just the rotation.)
const (
	LatestName   = "latest.ckpt"
	PreviousName = "previous.ckpt"
	tmpPattern   = "checkpoint-*.tmp"
)

const (
	// maxSection bounds a single section to guard length fields corrupted
	// into absurd allocations (1 GiB is far above any realistic frame).
	maxSection = 1 << 30
	// maxFrames bounds the header's frame count the same way.
	maxFrames = 1 << 20

	fileHeaderBytes    = 16 // magic, version, frame count
	sectionHeaderBytes = 8  // length, crc32
)

// sealSection fills in the header of the section whose reserved header
// starts at b[start] and whose payload runs to the end of b.
func sealSection(b []byte, start int) error {
	payload := b[start+sectionHeaderBytes:]
	if len(payload) > maxSection {
		return fmt.Errorf("checkpoint: section of %d bytes exceeds the %d-byte limit", len(payload), maxSection)
	}
	le.PutUint32(b[start:], uint32(len(payload)))
	le.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return nil
}

// readSection reads one section and returns its CRC-verified payload, held
// in buf's storage when that is large enough (no decoder retains it).
func readSection(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [sectionHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading section header: %w", err)
	}
	n, want := le.Uint32(hdr[0:4]), le.Uint32(hdr[4:8])
	if n > maxSection {
		return nil, fmt.Errorf("checkpoint: section length %d exceeds limit (corrupt header?)", n)
	}
	payload, err := readPayload(r, buf[:0], int(n))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading section payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("checkpoint: section CRC mismatch (got %08x, want %08x): file is corrupt", got, want)
	}
	return payload, nil
}

// readPayload appends exactly n bytes to buf. When r can say that it holds
// that many (an in-memory reader, a file) room is made at once; otherwise in
// bounded chunks, growing as data actually arrives. A corrupt length field
// on a truncated input thus fails with at most one chunk allocated, instead
// of committing up to maxSection bytes up front on the attacker-controlled
// (or fuzzer-controlled) length.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	const chunk = 1 << 20
	if n <= chunk || int64(n) <= held(r) {
		buf = slices.Grow(buf, n)[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	for len(buf) < n {
		c := min(n-len(buf), chunk)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r, buf[len(buf)-c:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// held is an upper bound on the bytes r has left, taken from the input
// itself: the unread length of an in-memory reader, the size of a file. It
// is -1 for a reader that cannot say.
func held(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// gobSection decodes a gob section payload (Meta, or a version-1 frame).
func gobSection(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("checkpoint: decoding section: %w", err)
	}
	return nil
}

// frameV1 mirrors Frame field for field: the shape gob gave a version-1
// frame section. Frame itself can no longer take that decode — gob hands a
// BinaryUnmarshaler opaque bytes, never struct fields — so the mirror is
// what keeps version-1 files loadable. Read-only: nothing encodes it.
type frameV1 struct {
	Rank int
	ID   []int64
	Pos  []vec.V
	Vel  []vec.V
	Cols []int
}

// Encode writes a complete checkpoint stream in the current format, stamped
// with FormatVersion whatever meta.Version says, with one Write.
func Encode(w io.Writer, meta *Meta, frames []Frame) error {
	b, err := appendStream(nil, meta, frames)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendStream appends a complete checkpoint stream to b: the Meta
// gob-encoded, b grown once to hold the file, every section appended and its
// length and CRC filled in place. When b already has the room (a Saver's
// kept buffer) nothing file-sized is allocated.
func appendStream(b []byte, meta *Meta, frames []Frame) ([]byte, error) {
	m := *meta
	m.Version = FormatVersion
	var mb bytes.Buffer
	if err := gob.NewEncoder(&mb).Encode(&m); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding header: %w", err)
	}
	size := fileHeaderBytes + sectionHeaderBytes + mb.Len()
	for i := range frames {
		n, err := frames[i].binarySize()
		if err != nil {
			return nil, err
		}
		size += sectionHeaderBytes + n
	}
	b = slices.Grow(b, size)
	start := len(b)
	b = append(b, magic[:]...)
	b = le.AppendUint32(b, FormatVersion)
	b = le.AppendUint32(b, uint32(len(frames)))
	b = append(append(b, make([]byte, sectionHeaderBytes)...), mb.Bytes()...)
	if err := sealSection(b, start+fileHeaderBytes); err != nil {
		return nil, err
	}
	for i := range frames {
		sec := len(b)
		var err error
		if b, err = frames[i].AppendBinary(append(b, make([]byte, sectionHeaderBytes)...)); err != nil {
			return nil, err
		}
		if err := sealSection(b, sec); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeHeader reads the fixed header and the Meta section, verifying the
// magic, the version (twice: header and Meta must agree) and the frame
// count's plausibility.
func decodeHeader(r io.Reader) (*Meta, int, error) {
	var hdr [fileHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return nil, 0, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, 0, fmt.Errorf("checkpoint: bad magic %q: not a checkpoint file", hdr[:8])
	}
	if _, err := io.ReadFull(r, hdr[8:]); err != nil {
		return nil, 0, fmt.Errorf("checkpoint: reading header: %w", err)
	}
	version, count := le.Uint32(hdr[8:12]), le.Uint32(hdr[12:16])
	if version < 1 || version > FormatVersion {
		return nil, 0, fmt.Errorf("checkpoint: unsupported format version %d (this build reads <= %d)", version, FormatVersion)
	}
	if count > maxFrames {
		return nil, 0, fmt.Errorf("checkpoint: implausible frame count %d (corrupt header?)", count)
	}
	payload, err := readSection(r, nil)
	if err != nil {
		return nil, 0, err
	}
	meta := &Meta{}
	if err := gobSection(payload, meta); err != nil {
		return nil, 0, err
	}
	if meta.Version != int(version) {
		return nil, 0, fmt.Errorf("checkpoint: header version %d disagrees with meta version %d", version, meta.Version)
	}
	return meta, int(count), nil
}

// Decode reads a checkpoint stream written by Encode (any version up to
// FormatVersion), verifying the magic, version and every section CRC. The
// frames it returns are rectangular.
func Decode(r io.Reader) (*Meta, []Frame, error) {
	meta, count, err := decodeHeader(r)
	if err != nil {
		return nil, nil, err
	}
	// The count is unverified until that many sections have arrived, so the
	// slice grows with them instead of being sized by it.
	var frames []Frame
	var payload []byte // one buffer serves every section
	for i := 0; i < count; i++ {
		if payload, err = readSection(r, payload); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: frame %d: %w", i, err)
		}
		var f Frame
		if meta.Version == 1 {
			var v1 frameV1
			if err = gobSection(payload, &v1); err == nil {
				f = Frame(v1)
				err = f.rectangular()
			}
		} else {
			err = f.UnmarshalBinary(payload)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: frame %d: %w", i, err)
		}
		frames = append(frames, f)
	}
	// Trailing bytes mean the file was not produced by Encode (or was
	// spliced); reject rather than silently ignore.
	if _, err := io.ReadFull(r, make([]byte, 1)); err != io.EOF {
		return nil, nil, fmt.Errorf("checkpoint: trailing data after %d frames", count)
	}
	return meta, frames, nil
}

// A Saver writes checkpoints, encoding each into a buffer it keeps across
// saves and grows to the largest file it has written, so a steady-state save
// allocates nothing file-sized. The zero value is ready to use. A Saver is
// not safe for concurrent use.
type Saver struct {
	buf []byte
}

// Save writes one checkpoint into dir atomically and rotates the retained
// pair. The stream is encoded into the kept buffer and lands in a uniquely
// named temporary file with one Write; then previous is removed, latest is
// renamed to previous, and the temporary file is renamed to latest. Both
// renames land on a name the step before vacated, so no rename replaces a
// live file: on ext4 (auto_da_alloc) a rename over an existing file starts
// writeback of the renamed one inside the call, about 0.5 ms per MB. A
// crash at any point leaves latest or previous holding a complete, loadable
// checkpoint whenever one was there before. It returns the path of the new
// latest file.
func (s *Saver) Save(dir string, meta *Meta, frames []Frame) (string, error) {
	b, err := appendStream(s.buf[:0], meta, frames)
	if err != nil {
		return "", err
	}
	s.buf = b
	var r rotation
	for _, step := range r.steps(dir, b) {
		if err := step(); err != nil {
			if r.tmp != "" {
				os.Remove(r.tmp)
			}
			return "", fmt.Errorf("checkpoint: %w", err)
		}
	}
	return filepath.Join(dir, LatestName), nil
}

// rotation is one Save's filesystem work; tmp names its temporary file once
// the first step has written it.
type rotation struct {
	tmp string
}

// steps are Save's filesystem operations in order. Stopping after any of
// them leaves a directory that held a loadable checkpoint still holding
// one: latest stays in place until it has been renamed to previous, and the
// new file becomes latest last. A missing previous or latest is not an
// error — the first save into a directory has neither, and a concurrent
// Save into the same directory may have rotated them away. Such a Save may
// also remove the previous this one just rotated, leaving the directory
// briefly empty; each Save's final rename still leaves a complete latest.
func (r *rotation) steps(dir string, b []byte) []func() error {
	latest, previous := filepath.Join(dir, LatestName), filepath.Join(dir, PreviousName)
	return []func() error{
		func() (err error) {
			if err := os.MkdirAll(dir, 0o777); err != nil {
				return err
			}
			r.tmp, err = writeTemp(dir, tmpPattern, func(w io.Writer) error {
				_, err := w.Write(b)
				return err
			})
			return err
		},
		func() error { return absentOK(os.Remove(previous)) },
		func() error { return absentOK(os.Rename(latest, previous)) },
		func() error { return os.Rename(r.tmp, latest) },
	}
}

// writeTemp creates a new, uniquely named file in dir from the
// os.CreateTemp pattern, fills it through write, closes it and returns its
// name; on failure nothing is left.
func writeTemp(dir, pattern string, write func(io.Writer) error) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("writing %s: %w", f.Name(), err)
	}
	return f.Name(), nil
}

// absentOK drops a does-not-exist error.
func absentOK(err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// WriteAtomic writes an arbitrary artifact with the checkpoint idiom: the
// payload lands in a uniquely named temporary file beside the target and is
// renamed into place only after a successful write and close. A reader (a
// Prometheus scrape of an exit snapshot, a plot script tailing results)
// never observes a torn or partially written file, and a crash mid-write
// leaves the previous version intact. The drivers use it for every
// exit-path artifact write. Unlike Save it renames over the target: its
// contract is that the one name always exists, which rules out vacating it
// first.
func WriteAtomic(path string, write func(io.Writer) error) error {
	tmp, err := writeTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*", write)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Load reads and verifies one checkpoint file.
func Load(path string) (*Meta, []Frame, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return Decode(f)
}

// LoadPath loads a checkpoint named either way a caller may hold one: the
// file itself, or its directory, where latest.ckpt is tried first and
// previous.ckpt when latest is missing or corrupt — the retained pair's
// whole point; the error then reports both failures.
func LoadPath(path string) (*Meta, []Frame, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if !fi.IsDir() {
		return Load(path)
	}
	meta, frames, lerr := Load(filepath.Join(path, LatestName))
	if lerr == nil {
		return meta, frames, nil
	}
	meta, frames, perr := Load(filepath.Join(path, PreviousName))
	if perr == nil {
		return meta, frames, nil
	}
	return nil, nil, fmt.Errorf("checkpoint: no loadable checkpoint in %s: latest: %v; previous: %v", path, lerr, perr)
}

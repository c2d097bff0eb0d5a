package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File layout:
//
//	magic (8 bytes) | version uint32 | frameCount uint32 |
//	section(Meta) | section(Frame) * frameCount
//
// where each section is
//
//	length uint32 | crc32(payload) uint32 | payload (gob)
//
// All integers are little-endian. Truncation surfaces as an unexpected-EOF
// error; any bit flip inside a payload fails that section's CRC; a flipped
// length either fails the CRC of the misframed payload or runs off the end
// of the file. Loading never panics on hostile input.

// FormatVersion is the current frame-format version. The policy is strictly
// additive within a version: new Meta fields decode as zero from older
// files. A breaking layout change bumps the version; Load rejects versions
// it does not know rather than misreading them.
const FormatVersion = 1

var magic = [8]byte{'P', 'C', 'C', 'K', 'P', 'T', 0, '\n'}

// Default file names inside a checkpoint directory. Save rotates the pair:
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

// maxSection bounds a single section to guard length fields corrupted into
// absurd allocations (1 GiB is far above any realistic shard).
const maxSection = 1 << 30

func writeSection(w io.Writer, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("checkpoint: encoding section: %w", err)
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(buf.Len()))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(buf.Bytes()))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

func readSection(r io.Reader, v any) error {
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("checkpoint: reading section header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxSection {
		return fmt.Errorf("checkpoint: section length %d exceeds limit (corrupt header?)", n)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return fmt.Errorf("checkpoint: reading section payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return fmt.Errorf("checkpoint: section CRC mismatch (got %08x, want %08x): file is corrupt", got, want)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("checkpoint: decoding section: %w", err)
	}
	return nil
}

// readPayload reads exactly n bytes in bounded chunks, growing as data
// actually arrives. A corrupt length field on a truncated file thus fails
// with at most one chunk allocated, instead of committing up to maxSection
// bytes up front on the attacker-controlled (or fuzzer-controlled) length.
func readPayload(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	if n <= chunk {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf := make([]byte, 0, chunk)
	for len(buf) < n {
		c := min(n-len(buf), chunk)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r, buf[len(buf)-c:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Encode writes a complete checkpoint stream.
func Encode(w io.Writer, meta *Meta, frames []Frame) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(meta.Version))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(frames)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := writeSection(bw, meta); err != nil {
		return err
	}
	for i := range frames {
		if err := writeSection(bw, &frames[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a checkpoint stream written by Encode, verifying the magic,
// version and every section CRC.
func Decode(r io.Reader) (*Meta, []Frame, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if m != magic {
		return nil, nil, fmt.Errorf("checkpoint: bad magic %q: not a checkpoint file", m[:])
	}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: reading header: %w", err)
	}
	version := int(binary.LittleEndian.Uint32(hdr[0:4]))
	count := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if version < 1 || version > FormatVersion {
		return nil, nil, fmt.Errorf("checkpoint: unsupported format version %d (this build reads <= %d)", version, FormatVersion)
	}
	if count < 0 || count > 1<<20 {
		return nil, nil, fmt.Errorf("checkpoint: implausible frame count %d (corrupt header?)", count)
	}
	meta := &Meta{}
	if err := readSection(br, meta); err != nil {
		return nil, nil, err
	}
	if meta.Version != version {
		return nil, nil, fmt.Errorf("checkpoint: header version %d disagrees with meta version %d", version, meta.Version)
	}
	frames := make([]Frame, count)
	for i := range frames {
		if err := readSection(br, &frames[i]); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: frame %d: %w", i, err)
		}
	}
	// Trailing bytes mean the file was not produced by Encode (or was
	// spliced); reject rather than silently ignore.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, nil, fmt.Errorf("checkpoint: trailing data after %d frames", count)
	}
	return meta, frames, nil
}

// Save writes one checkpoint into dir atomically and rotates the retained
// pair: the stream lands in a temporary file first, the existing latest (if
// any) is renamed to previous, then the temporary file is renamed to
// latest. A crash at any point leaves at least one complete, loadable file.
// It returns the path of the new latest file.
func Save(dir string, meta *Meta, frames []Frame) (string, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	m := *meta
	m.Version = FormatVersion
	f, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	err = Encode(f, &m, frames)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("checkpoint: writing %s: %w", tmp, err)
	}
	latest := filepath.Join(dir, LatestName)
	if _, serr := os.Stat(latest); serr == nil {
		// A concurrent Save into the same directory may rotate latest away
		// between the Stat and the Rename; that writer's rotation preserved
		// a complete file as previous, so a vanished source is not an error.
		if err := os.Rename(latest, filepath.Join(dir, PreviousName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			os.Remove(tmp)
			return "", fmt.Errorf("checkpoint: rotating previous: %w", err)
		}
	}
	if err := os.Rename(tmp, latest); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	return latest, nil
}

// WriteAtomic writes an arbitrary artifact with the checkpoint idiom: the
// payload lands in a uniquely named temporary file beside the target and is
// renamed into place only after a successful write and close. A reader (a
// Prometheus scrape of an exit snapshot, a plot script tailing results)
// never observes a torn or partially written file, and a crash mid-write
// leaves the previous version intact. The drivers use it for every
// exit-path artifact write.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
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
// file itself, or its directory (LoadDir's latest-then-previous choice).
func LoadPath(path string) (*Meta, []Frame, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if fi.IsDir() {
		meta, frames, _, err := LoadDir(path)
		return meta, frames, err
	}
	return Load(path)
}

// LoadDir loads the newest loadable checkpoint in dir: latest.ckpt first,
// falling back to previous.ckpt when latest is missing or corrupt (the
// retained-pair policy's whole point). The returned path says which file
// was used; the error reports both failures when neither loads.
func LoadDir(dir string) (*Meta, []Frame, string, error) {
	latest := filepath.Join(dir, LatestName)
	meta, frames, lerr := Load(latest)
	if lerr == nil {
		return meta, frames, latest, nil
	}
	prev := filepath.Join(dir, PreviousName)
	meta, frames, perr := Load(prev)
	if perr == nil {
		return meta, frames, prev, nil
	}
	return nil, nil, "", fmt.Errorf("checkpoint: no loadable checkpoint in %s: latest: %v; previous: %v", dir, lerr, perr)
}

package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"looppoint/internal/artifact"
)

// Job identity. Checkpoints, region journals, and cached reports may be
// reused only under the inputs that determine them, so every Config and
// RunOpts field carries an `identity` tag naming the earliest stage its
// value can change:
//
//	analysis    the recording and the BBV profile
//	selection   which regions are chosen, given the profile
//	simulation  the region statistics and the extrapolation built on them
//	host        where or how fast the job runs, never what it computes
//
// A stage's fingerprint covers its own fields and every earlier stage's,
// since each stage consumes the ones before it: durable analysis epochs
// key on the analysis stage, the region journal and the harness resume
// journal on the simulation stage. Host fields never enter a fingerprint,
// so a job resumed at another -j finds its own work. The encoding is
// canonical (field names and fixed-width values in declaration order),
// and an unclassified field makes the encoder panic rather than silently
// merge or split jobs.

// Stage is an identity class: the earliest pipeline stage a field can
// change.
type Stage int

// Identity classes, in pipeline order.
const (
	StageHost Stage = iota
	StageAnalysis
	StageSelection
	StageSimulation
)

var stageNames = map[string]Stage{
	"host":       StageHost,
	"analysis":   StageAnalysis,
	"selection":  StageSelection,
	"simulation": StageSimulation,
}

// identityVersion names the encoding rules below; bump it when they
// change.
const identityVersion = 1

// Fingerprint hashes the canonical encoding of parts into 16 hex digits.
// A classified struct (one whose fields carry identity tags, such as
// Config and RunOpts) contributes only its non-host fields classified at
// or before upTo; any other value contributes whole.
func Fingerprint(upTo Stage, parts ...any) string {
	buf := binary.LittleEndian.AppendUint64(nil, identityVersion)
	for _, p := range parts {
		buf = appendCanonical(buf, reflect.ValueOf(p), upTo)
	}
	return fmt.Sprintf("%016x", artifact.Checksum(buf))
}

// fieldStages returns the identity class of every field of struct type
// t, or nil when no field is tagged (the struct is encoded whole). It
// panics on a partially tagged struct or an unknown class name: both are
// programming errors the reflection tests catch.
func fieldStages(t reflect.Type) []Stage {
	stages := make([]Stage, t.NumField())
	var untagged []string
	for i := range stages {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("identity")
		if !ok {
			untagged = append(untagged, f.Name)
			continue
		}
		s, known := stageNames[tag]
		if !known {
			panic(fmt.Sprintf("core: %s.%s has unknown identity class %q", t.Name(), f.Name, tag))
		}
		stages[i] = s
	}
	switch len(untagged) {
	case len(stages):
		return nil
	case 0:
		return stages
	}
	panic(fmt.Sprintf("core: %s fields %v have no identity class", t.Name(), untagged))
}

func appendCanonical(buf []byte, v reflect.Value, upTo Stage) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(buf, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case reflect.String:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Len()))
		return append(buf, v.String()...)
	case reflect.Slice, reflect.Array:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			buf = appendCanonical(buf, v.Index(i), upTo)
		}
		return buf
	case reflect.Struct:
		t := v.Type()
		stages := fieldStages(t)
		for i := 0; i < t.NumField(); i++ {
			if stages != nil && (stages[i] == StageHost || stages[i] > upTo) {
				continue
			}
			name := t.Field(i).Name
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(name)))
			buf = append(buf, name...)
			buf = appendCanonical(buf, v.Field(i), upTo)
		}
		return buf
	}
	panic(fmt.Sprintf("core: identity cannot encode a %s", v.Type()))
}

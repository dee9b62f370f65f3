package campaign

import (
	"reflect"
	"testing"

	"looppoint/internal/serve"
)

// TestJobRequestFieldsFeedKeyOrNormalize guards the campaign job
// identity: every serve.JobRequest field either feeds KeyTagged's
// signature or is cleared by Normalize as per-request plumbing. A new
// request field that did neither would let two different jobs share one
// key — one cache entry, one claim, one journal record.
func TestJobRequestFieldsFeedKeyOrNormalize(t *testing.T) {
	base := serve.JobRequest{
		Class: serve.ClassReport, App: "npb-cg", Input: "test", Threads: 4,
		Policy: "passive", Core: "ooo",
	}
	baseKey := KeyTagged("t", base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		req := base
		f := reflect.ValueOf(&req).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("JobRequest.%s: no mutation for a %s", name, f.Type())
		}
		if reflect.ValueOf(Normalize(req)).Field(i).IsZero() {
			continue // per-request plumbing, cleared before hashing
		}
		if KeyTagged("t", req) == baseKey {
			t.Errorf("JobRequest.%s neither feeds KeyTagged nor is cleared by Normalize", name)
		}
	}
}

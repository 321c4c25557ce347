package taglessdram

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"taglessdram/internal/config"
)

// TestOptionsFieldsClassified is the stale-hit firewall: every exported
// Options field must carry a json tag, because the tag is its
// classification. A named field can change a Result, so it crosses the
// wire and enters the cache key; `json:"-"` marks a local field that does
// neither. An untagged field would silently enter both under its Go
// name, so adding one without deciding fails here.
func TestOptionsFieldsClassified(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		if _, ok := f.Tag.Lookup("json"); !ok {
			t.Errorf("Options.%s has no json tag: give it a json name if it can change a Result, or `json:\"-\"` if it never can", f.Name)
		}
	}
}

// isCheckpointField reports whether an Options field is one of the
// checkpoint trio, which is local but folds into the key's quiesced bit.
func isCheckpointField(name string) bool {
	return name == "CheckpointSave" || name == "CheckpointLoad" || name == "Checkpoints"
}

// TestCanonicalCoversExactlySemanticFields mutates every exported
// Options field and asserts the cache-key preimage changes exactly when
// the field has a json name or is a checkpoint field, so the tags and
// the key cannot drift apart. The base sets the knobs projectFor would
// otherwise zero (tagless design, pwc walk, epoch sampling, context
// switching), so every named field is visible in the key.
func TestCanonicalCoversExactlySemanticFields(t *testing.T) {
	base := DefaultOptions()
	base.WalkModel = "pwc"
	base.EpochRefs = 1000
	base.CtxSwitchRefs = 1000
	w, err := workloadFor("sphinx3", base)
	if err != nil {
		t.Fatal(err)
	}
	basePre, err := preimageFor(Tagless, "sphinx3", w, base)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		o := base
		fv := reflect.ValueOf(&o).Elem().Field(i)
		if !mutateField(fv) {
			t.Errorf("Options.%s: no mutation rule for kind %v — extend mutateField", f.Name, fv.Kind())
			continue
		}
		pre, err := preimageFor(Tagless, "sphinx3", w, o)
		if err != nil {
			t.Fatalf("Options.%s: %v", f.Name, err)
		}
		named := f.Tag.Get("json") != "-"
		switch keyed := named || isCheckpointField(f.Name); {
		case keyed && pre == basePre:
			t.Errorf("Options.%s should enter the cache key but the preimage ignores it", f.Name)
		case !keyed && pre != basePre:
			t.Errorf("Options.%s is local (json:\"-\") but changes the preimage:\n got: %s\nbase: %s", f.Name, pre, basePre)
		}
	}
}

// mutateField sets v to a value different from its current one, covering
// every kind Options uses. Returns false for kinds it cannot mutate.
// Integers step by 2 so a zero knob lands on a valid setting (a
// hot-filter threshold of 1 is rejected).
func mutateField(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 2)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "mutated")
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func(args []reflect.Value) []reflect.Value {
			out := make([]reflect.Value, 0, v.Type().NumOut())
			for i := 0; i < v.Type().NumOut(); i++ {
				out = append(out, reflect.Zero(v.Type().Out(i)))
			}
			return out
		}))
	case reflect.Interface:
		if !reflect.TypeOf(&bytes.Buffer{}).Implements(v.Type()) {
			return false
		}
		v.Set(reflect.ValueOf(&bytes.Buffer{}))
	default:
		return false
	}
	return true
}

// TestConfigFieldsCanonical walks the resolved SystemConfig recursively
// and asserts every field is a plain value kind. The cache preimage
// embeds the whole config via %+v, which is deterministic exactly when
// the struct holds no pointers, slices, maps, funcs, channels or
// interfaces — a future reference-typed config field fails here until
// the preimage learns to canonicalize it.
func TestConfigFieldsCanonical(t *testing.T) {
	var check func(typ reflect.Type, path string)
	check = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.String:
			return
		case reflect.Array:
			check(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(f.Type, path+"."+f.Name)
			}
		default:
			t.Errorf("%s has kind %v: not a plain value, so %%+v of SystemConfig is no longer a sound canonical encoding — teach Job.preimage to canonicalize it", path, typ.Kind())
		}
	}
	check(reflect.TypeOf(config.SystemConfig{}), "SystemConfig")

	if k := reflect.TypeOf(Design(0)).Kind(); k != reflect.Int {
		t.Errorf("Design kind = %v, want plain int (the preimage renders it numerically)", k)
	}
}

// TestPreimageContents pins the auditable structure of the canonical
// preimage: versions, design, workload, trace digest, options and the
// resolved config all present; the quiesced bit tracking the checkpoint
// execution path.
func TestPreimageContents(t *testing.T) {
	o := DefaultOptions()
	j := Job{Design: Tagless, Workload: "sphinx3", Options: o}
	pre, err := j.preimage()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"taglessdram result-cache preimage v2",
		"model=1",
		"design=3(cTLB)",
		`workload="sphinx3"`,
		"trace=",
		`options={"shift":6,"warmup":3000000,"measure":3000000,"seed":1}`,
		"config={CPU:",
	} {
		if !strings.Contains(pre, want) {
			t.Errorf("preimage missing %q:\n%s", want, pre)
		}
	}

	if strings.Contains(pre, "sampler=") {
		t.Errorf("an unsampled preimage carries a sampler version:\n%s", pre)
	}
	sj := j
	sj.Options.Sample = &SampleSpec{WindowRefs: 2000, WarmRefs: 1000, PeriodRefs: 40000}
	spre, err := sj.preimage()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spre, "\nsampler=1\n") {
		t.Errorf("sampled preimage missing the sampler version line:\n%s", spre)
	}

	j.Options.Checkpoints = NewCheckpointStore()
	qpre, err := j.preimage()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qpre, `"quiesced":true`) {
		t.Errorf("Checkpoints store should set the quiesced bit:\n%s", qpre)
	}
	if qpre == pre {
		t.Errorf("quiesced and plain runs must not share a preimage")
	}

	if (Options{CheckpointSave: "x"}).cacheable() {
		t.Errorf("CheckpointSave runs must bypass the cache")
	}
	if (Options{CheckpointLoad: "x"}).cacheable() {
		t.Errorf("CheckpointLoad runs must bypass the cache")
	}
	if (Options{TraceEvents: &bytes.Buffer{}}).cacheable() {
		t.Errorf("trace-requesting runs must bypass the cache")
	}
	if !(Options{Checkpoints: NewCheckpointStore()}).cacheable() {
		t.Errorf("in-memory checkpoint stores are deterministic and must stay cacheable")
	}
}

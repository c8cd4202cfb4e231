package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
	"repro/slx"
)

// inProcessVerdict judges a POST /v1/jobs body the way an in-process
// caller would: decode it with unknown fields refused, apply the mode
// rules, build the job's checker through JobChecker (target lookup and
// process count) and run ValidateExplore on it. It returns the message
// a rejection must carry, and whether the body is rejected.
func inProcessVerdict(body []byte) (string, bool) {
	var spec service.JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return "bad job spec: " + err.Error(), true
	}
	switch spec.Mode {
	case "":
	case "exhaustive":
		if spec.Sample {
			return `mode "exhaustive" contradicts "sample": true`, true
		}
	case "sample":
		spec.Sample = true
	default:
		return fmt.Sprintf(`unknown mode %q (want "exhaustive" or "sample")`, spec.Mode), true
	}
	var extra []slx.Option
	if spec.SharedCache {
		extra = append(extra, slx.WithVisitedTier(slx.NewVisitedTier()))
	}
	c, prop, err := service.JobChecker(spec, extra...)
	if err == nil {
		err = c.ValidateExplore(prop)
	}
	if err != nil {
		return err.Error(), true
	}
	return "", false
}

// FuzzSubmitSpec sends arbitrary bodies through slxd's submit handler:
// decoding with unknown fields refused, the mode rules, the target
// lookup, the process count and ValidateExplore. The server is already
// shut down, so a body that passes every check is answered 503 and
// never enqueued or run. No body may panic the handler, and every rejection must be a 400
// whose message is the one the in-process checks give (the parity
// TestValidationParity pins case by case). The seed corpus in
// testdata/fuzz/FuzzSubmitSpec holds a sampling spec with d = 2⁶², which
// slxd once admitted and then crashed on, and one body per rejection
// kind.
func FuzzSubmitSpec(f *testing.F) {
	srv, err := service.NewServer(service.Config{Workers: 1})
	if err != nil {
		f.Fatalf("NewServer: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		f.Fatalf("Shutdown: %v", err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		want, rejected := inProcessVerdict(body)
		if !rejected {
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("valid body %q: status %d, want 503 from the shut-down server (body %s)", body, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400 (body %s)", body, rec.Code, rec.Body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("body %q: error response %q: %v", body, rec.Body, err)
		}
		if e.Error != want {
			t.Fatalf("body %q:\n  daemon:     %q\n  in-process: %q", body, e.Error, want)
		}
	})
}

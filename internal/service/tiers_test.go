package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRejectedSpecsLeaveNoTier: a shared-cache spec that names no
// registered target is rejected with JobChecker's message and must not
// leave a visited tier behind, or every such request would grow the
// daemon's memory for its lifetime.
func TestRejectedSpecsLeaveNoTier(t *testing.T) {
	s, err := NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer s.Shutdown(context.Background())
	h := s.Handler()
	for i := 0; i < 1000; i++ {
		target := fmt.Sprintf("nosuch%d", i)
		body := fmt.Sprintf(`{"target":%q,"shared_cache":true,"cache":true}`, target)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("submission %d: status %d, body %q: %v", i, rec.Code, rec.Body, err)
		}
		_, _, want := JobChecker(JobSpec{Target: target})
		if rec.Code != http.StatusBadRequest || want == nil || e.Error != want.Error() {
			t.Fatalf("submission %d: status %d, error %q; want 400, %v", i, rec.Code, e.Error, want)
		}
	}
	s.mu.Lock()
	n := len(s.tiers)
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("%d visited tiers after 1,000 rejected submissions, want 0", n)
	}
}

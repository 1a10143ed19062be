package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
)

// Error pairs an HTTP status with the underlying error.
type Error struct {
	Status int
	Err    error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// BadRequest is a 400 carrying the formatted message.
func BadRequest(format string, args ...any) error {
	return &Error{Status: http.StatusBadRequest, Err: fmt.Errorf(format, args...)}
}

// BodyError classifies a request-body read or decode failure: a
// MaxBytesReader trip is the client sending too much (413, tooLarge formatted
// with the cap), anything else a plain 400 (malformed formatted with the
// cause). The caller owns the two wordings, so ibserve's and ibrouter's error
// texts stay the ones their clients already see.
func BodyError(err error, tooLarge, malformed string) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &Error{Status: http.StatusRequestEntityTooLarge, Err: fmt.Errorf(tooLarge, mbe.Limit)}
	}
	return BadRequest(malformed, err)
}

// StatusFor maps an error to its response status: an explicit Error status,
// 504 for deadline/cancellation, else 400 (the remaining errors are core's
// argument validation).
func StatusFor(err error) int {
	var ae *Error
	if errors.As(err, &ae) {
		return ae.Status
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// WriteError answers status with the {"error": ...} body every failure of
// either process carries.
func WriteError(w http.ResponseWriter, r *http.Request, logger *slog.Logger, status int, err error) {
	logger.Debug("request failed", "path", r.URL.Path, "status", status, "err", err.Error())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

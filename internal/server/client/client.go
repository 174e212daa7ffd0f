// Package client is the thin HTTP client for dracod's JSON API, used by
// the dracod binary's ctl subcommands and by programs embedding a remote
// checker.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"draco/internal/server"
)

// Client talks to one dracod instance.
type Client struct {
	base string
	hc   *http.Client
}

// New creates a client for a base URL such as "http://127.0.0.1:8477".
// The URL must not end with a path; a trailing slash is trimmed.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("dracod: %s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("dracod: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(in); err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, &buf, out)
}

// Check validates one system call.
func (c *Client) Check(ctx context.Context, req server.CheckRequest) (server.CheckResult, error) {
	var out server.CheckResult
	err := c.postJSON(ctx, "/v1/check", req, &out)
	return out, err
}

// CheckBatch validates a batch of calls in one round trip.
func (c *Client) CheckBatch(ctx context.Context, req server.BatchRequest) ([]server.CheckResult, error) {
	var out server.BatchResponse
	if err := c.postJSON(ctx, "/v1/check-batch", req, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// PutProfile uploads a Docker-format JSON profile document for a tenant,
// hot-swapping it if the tenant exists.
func (c *Client) PutProfile(ctx context.Context, tenant string, profileJSON io.Reader) (server.ProfileResponse, error) {
	var out server.ProfileResponse
	err := c.do(ctx, http.MethodPut, "/v1/tenants/"+tenant+"/profile", profileJSON, &out)
	return out, err
}

// Stats fetches a tenant's checker statistics.
func (c *Client) Stats(ctx context.Context, tenant string) (server.StatsResponse, error) {
	var out server.StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/tenants/"+tenant+"/stats", nil, &out)
	return out, err
}

// Tenants lists provisioned tenants.
func (c *Client) Tenants(ctx context.Context) ([]string, error) {
	var out map[string][]string
	if err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &out); err != nil {
		return nil, err
	}
	return out["tenants"], nil
}

// Metrics fetches the plain-text metrics page.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("dracod: GET /metrics: HTTP %d", resp.StatusCode)
	}
	return string(b), nil
}

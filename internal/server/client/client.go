// Package client reaches a running dracod. Checks travel over the binary
// edges, Wire (TCP) and Shm (shared-memory rings); both implement
// Transport. Client is the thin HTTP client for the control plane
// (profiles, stats, tenants, metrics) that the dracod binary's ctl
// subcommands use.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
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

// do sends one request and decodes a 200 answer into out: as JSON, or as
// raw text when out is a *string.
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
	if text, ok := out.(*string); ok {
		b, err := io.ReadAll(resp.Body)
		*text = string(b)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// PutProfile uploads a Docker-format JSON profile document for a tenant,
// hot-swapping it if the tenant exists. The tenant name is path-escaped, so
// any name legal over wire and shm reaches the same tenant here.
func (c *Client) PutProfile(ctx context.Context, tenant string, profileJSON io.Reader) (server.ProfileResponse, error) {
	var out server.ProfileResponse
	err := c.do(ctx, http.MethodPut, "/v1/tenants/"+url.PathEscape(tenant)+"/profile", profileJSON, &out)
	return out, err
}

// Stats fetches a tenant's checker statistics.
func (c *Client) Stats(ctx context.Context, tenant string) (server.StatsResponse, error) {
	var out server.StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/tenants/"+url.PathEscape(tenant)+"/stats", nil, &out)
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
	var text string
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &text)
	return text, err
}

package winapi

import (
	"scarecrow/internal/trace"
)

// DnsQuery resolves a domain name, emitting the DNSQuery kernel event.
// Whether non-existent domains resolve is the environment signal WannaCry's
// kill switch keys on: sinkholing sandboxes answer, real networks do not.
func (c *Context) DnsQuery(domain string) (string, Status) {
	r := c.invoke("DnsQuery", []arg{strArg(domain)}, genuineResolve)
	return r.Str, r.Status
}

// Getaddrinfo is the socket-layer resolution path; same semantics as
// DnsQuery, separately hookable.
func (c *Context) Getaddrinfo(domain string) (string, Status) {
	r := c.invoke("getaddrinfo", []arg{strArg(domain)}, genuineResolve)
	return r.Str, r.Status
}

func genuineResolve(c *Context, call *Call) Result {
	domain := call.StrArg(0)
	addr, ok := c.M.Net.Resolve(domain)
	c.M.Record(trace.Event{
		Kind: trace.KindDNSQuery, PID: c.P.PID, Image: c.P.Image,
		Target: domain, Detail: "addr=" + addr, Success: ok,
	})
	if !ok {
		return Result{Status: StatusHostNotFound}
	}
	return Result{Status: StatusSuccess, Str: addr}
}

// InternetOpenUrl performs an HTTP GET against a resolved address,
// returning 200 when something answers.
func (c *Context) InternetOpenUrl(addr string) (int, Status) {
	r := c.invoke("InternetOpenUrl", []arg{strArg(addr)}, func(c *Context, call *Call) Result {
		addr := call.StrArg(0)
		ok := c.M.Net.HTTPGet(addr)
		c.M.Record(trace.Event{
			Kind: trace.KindHTTPRequest, PID: c.P.PID, Image: c.P.Image,
			Target: addr, Success: ok,
		})
		if !ok {
			return Result{Status: StatusTimeout}
		}
		return Result{Status: StatusSuccess, Code: 200}
	})
	return r.Code, r.Status
}

// Connect opens a TCP connection to an address.
func (c *Context) Connect(addr string) Status {
	return c.invoke("connect", []arg{strArg(addr)}, func(c *Context, call *Call) Result {
		addr := call.StrArg(0)
		ok := c.M.Net.HTTPGet(addr)
		c.M.Record(trace.Event{
			Kind: trace.KindTCPConnect, PID: c.P.PID, Image: c.P.Image,
			Target: addr, Success: ok,
		})
		if !ok {
			return Result{Status: StatusTimeout}
		}
		return Result{Status: StatusSuccess}
	}).Status
}

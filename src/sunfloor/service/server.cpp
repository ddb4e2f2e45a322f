#include "sunfloor/service/server.h"

#include <utility>

#include "sunfloor/explore/export.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/service/transport.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::service {

namespace {

std::string error_response(const std::string& msg) {
    return "{\"ok\":false,\"error\":" + json_quote(msg) + "}";
}

std::string reject_response(RejectReason reason, const std::string& msg) {
    return format("{\"ok\":false,\"rejected\":\"%s\",\"error\":%s}",
                  reject_to_string(reason), json_quote(msg).c_str());
}

std::string status_response(const JobStatus& st) {
    return format("{\"ok\":true,\"id\":%llu,\"kind\":\"%s\","
                  "\"status\":\"%s\",\"wait_ms\":%.3f,\"run_ms\":%.3f}",
                  static_cast<unsigned long long>(st.id),
                  kind_to_string(st.kind), state_to_string(st.state),
                  st.wait_ms, st.run_ms);
}

std::string result_response(const JobStatus& st, const JobResult& r) {
    std::string out = format(
        "{\"ok\":true,\"id\":%llu,\"status\":\"%s\",\"result\":{",
        static_cast<unsigned long long>(st.id),
        state_to_string(st.state));
    if (r.failed) {
        out += "\"error\":" + json_quote(r.error);
        return out + "}}";
    }
    out += format("\"kind\":\"%s\",", kind_to_string(st.kind));
    if (!r.phase_used.empty())
        out += "\"phase\":" + json_quote(r.phase_used) + ",";
    out += format("\"num_points\":%d,\"num_valid\":%d,\"pareto\":%d,"
                  "\"best_power_mw\":%.17g,\"best_latency_cycles\":%.17g,",
                  r.num_points, r.num_valid, r.pareto_size,
                  r.best_power_mw, r.best_latency_cycles);
    out += "\"csv\":" + json_quote(r.csv);
    return out + "}}";
}

std::string stats_response(const EngineStats& st) {
    return format(
        "{\"ok\":true,\"stats\":{\"submitted\":%lld,\"completed\":%lld,"
        "\"failed\":%lld,\"rejected\":%lld,\"queued\":%d,\"running\":%d,"
        "\"workers\":%d,\"sessions\":%d}}",
        st.submitted, st.completed, st.failed, st.rejected, st.queued,
        st.running, st.workers, st.sessions);
}

const char kBusyResponse[] =
    "{\"ok\":false,\"rejected\":\"busy\","
    "\"error\":\"too many pending connections\"}\n";

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      engine_(std::make_unique<JobEngine>(opts_.engine)),
      loop_([this](int fd) { serve_connection(fd); }, kBusyResponse,
            // Submissions now get "shutting-down"; wait() drains the rest.
            [this] { engine_->begin_drain(); }) {}

bool Server::start(std::string& error) {
    return loop_.start(opts_.listen, opts_.conn_threads, error);
}

void Server::wait() {
    loop_.wait();
    engine_->drain();
}

void Server::serve_connection(int fd) {
    std::string buf;
    std::string line;
    std::string err;
    for (;;) {
        const int r = read_line(
            fd, buf, line,
            static_cast<std::size_t>(
                opts_.max_frame_bytes > 0 ? opts_.max_frame_bytes : 0),
            err);
        if (r == 0) break;  // clean EOF
        if (r == -2) {      // receive timeout: idle connection
            if (loop_.stopping()) break;
            continue;
        }
        if (r < 0) {
            // Oversized frame or broken stream: answer (best effort, the
            // peer may be gone) and drop the connection — the framing is
            // unrecoverable.
            write_all(fd, error_response(err) + "\n");
            break;
        }
        std::string resp;
        {
            obs::ScopedSpan span("service.request");
            Request req;
            std::string perr;
            if (!parse_request(line, opts_.max_frame_bytes, req, perr)) {
                resp = error_response(perr);
            } else {
                resp = handle(req);
            }
        }
        if (!write_all(fd, resp + "\n")) break;
    }
}

std::string Server::handle(const Request& req) {
    switch (req.op) {
        case Request::Op::Submit: {
            JobRequest jr;
            std::string err;
            if (!build_job_request(req.submit, jr, err))
                return error_response(err);
            const Submission sub = engine_->submit(std::move(jr));
            if (!sub.accepted)
                return reject_response(sub.reason, sub.error);
            if (!req.submit.wait)
                return format("{\"ok\":true,\"id\":%llu,"
                              "\"status\":\"queued\"}",
                              static_cast<unsigned long long>(sub.id));
            JobStatus st;
            engine_->wait(sub.id, st);
            JobResult r;
            engine_->result(sub.id, r);
            return result_response(st, r);
        }
        case Request::Op::Status: {
            JobStatus st;
            if (!engine_->status(req.id, st))
                return error_response(
                    format("unknown job id %llu",
                           static_cast<unsigned long long>(req.id)));
            return status_response(st);
        }
        case Request::Op::Result: {
            JobStatus st;
            if (!engine_->status(req.id, st))
                return error_response(
                    format("unknown job id %llu",
                           static_cast<unsigned long long>(req.id)));
            if (req.wait) engine_->wait(req.id, st);
            if (st.state != JobState::Done &&
                st.state != JobState::Failed)
                return error_response(
                    format("job %llu is not finished (status %s)",
                           static_cast<unsigned long long>(req.id),
                           state_to_string(st.state)));
            JobResult r;
            engine_->result(req.id, r);
            return result_response(st, r);
        }
        case Request::Op::Stats:
            return stats_response(engine_->stats());
        case Request::Op::Shutdown:
            request_shutdown();
            return "{\"ok\":true,\"status\":\"draining\"}";
    }
    return error_response("unhandled op");
}

}  // namespace sunfloor::service

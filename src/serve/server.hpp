// The serving daemon: registry + batcher + metrics behind a newline-
// delimited JSON protocol.
//
// Transport is deliberately plain - one JSON request per input line, one
// JSON response per output line, in request order - so the daemon composes
// with anything that can speak pipes: the CI smoke test, the bench load
// generator, a socket wrapper.  Requests:
//
//   {"op":"predict","x":"0101...","model":"default","label":3,"id":7}
//       -> {"ok":true,"id":7,"prediction":2,"model":"<hash16>","lat_us":...}
//   {"op":"load","path":"model.tm"}      register a .tm file
//   {"op":"load","hash":"<prefix>"}      hot-load from the artifact store
//   {"op":"swap","alias":"default","target":"<hash-or-prefix>"}
//   {"op":"models"}                      catalogue listing
//   {"op":"status"}                      metrics snapshot inline
//   {"op":"shutdown"}                    drain in-flight work and exit
//
// `op` defaults to "predict" and `model` to "default", so the minimal
// request is just {"x":"..."}.  Failures come back in-order as
// {"ok":false,"error":"<typed code>","detail":...} - a malformed line or a
// shed request never kills the daemon.
//
// Responses are emitted strictly in request order.  predict replies ride
// on batcher futures: the calling thread reads, parses and submits, while
// a writer thread emits each reply as soon as it and every reply before it
// are ready, and flushes whenever the next one is not - so a client with a
// single request outstanding gets its answer without sending another line.
// At most `max_inflight` replies are owed at once, so micro-batches can
// fill while earlier replies are still pending.  A predict's optional
// "label" must be an integer class index of the model that scores it.
// Optionally a background thread snapshots metrics to
// `status_file` (atomic rename) every `status_interval_s` - the live
// `serve-status` document readable while the daemon runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <future>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "train/worker_pool.hpp"
#include "util/json.hpp"

namespace matador::serve {

struct ServerOptions {
    BatcherOptions batch;
    unsigned threads = 0;        ///< WorkerPool::resolve semantics
    std::string cache_dir;       ///< artifact store to scan_store(), "" = none
    std::string status_file;     ///< periodic serve-status JSON, "" = off
    double status_interval_s = 1.0;
    std::size_t max_inflight = 256;  ///< replies owed before reading pauses
};

class Server {
public:
    explicit Server(ServerOptions options = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    ModelRegistry& registry() { return registry_; }
    ServeMetrics& metrics() { return metrics_; }
    Batcher& batcher() { return batcher_; }

    /// Serve NDJSON requests from `in` until EOF or a shutdown op, writing
    /// one response line per request to `out`.  Returns 0 on clean drain.
    int run(std::istream& in, std::ostream& out);

private:
    /// One slot in the in-order response window: either an already-built
    /// response or a predict future still being batched.
    struct Pending {
        util::Json immediate;
        std::future<Reply> future;
        util::Json id;
        bool is_future = false;
    };
    /// The writer thread of run() and its bounded in-order queue.
    class ReplyWriter;

    Pending process_line(const std::string& line);
    util::Json handle_control(const util::Json& request, const std::string& op);
    static util::Json error_response(const util::Json& id,
                                     const std::string& code,
                                     const std::string& detail,
                                     double retry_after_ms = 0.0);

    void write_status_file() const;
    void status_loop();

    ServerOptions options_;
    train::WorkerPool pool_;
    ModelRegistry registry_;
    ServeMetrics metrics_;
    Batcher batcher_;

    std::mutex status_mu_;
    std::condition_variable status_cv_;
    bool status_stop_ = false;
    std::thread status_thread_;

    std::atomic<bool> shutdown_requested_{false};
};

}  // namespace matador::serve

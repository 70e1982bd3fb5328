#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <istream>
#include <ostream>
#include <utility>

#include "obs/trace.hpp"
#include "serve/error.hpp"
#include "util/bitvector.hpp"
#include "util/fsio.hpp"

namespace matador::serve {

namespace {

/// A predict's "label" names a class of the model that scores it: an
/// integer in [0, classes).  Anything else is a bad request - casting it
/// would be undefined, and it would count as a wrong answer in the rolling
/// accuracy.
std::uint32_t class_label(const util::Json& label, std::size_t classes) {
    const double v = label.is_number() ? label.as_double() : -1.0;
    if (!(v >= 0.0 && v < double(classes) && v == std::floor(v)))
        throw ServeError(ErrorCode::kBadRequest,
                         "label must be an integer class index in [0, " +
                             std::to_string(classes) + ")");
    return std::uint32_t(v);
}

}  // namespace

// The reply half of run().  The reading thread push()es one Pending per
// request line; the writer thread emits them strictly in that order, each
// as soon as it is ready, and flushes `out` whenever the next one is not,
// so no reply waits in the stream buffer for later traffic.  At most
// `window` replies are owed at once: push() blocks the reader beyond that.
class Server::ReplyWriter {
public:
    ReplyWriter(std::ostream& out, std::size_t window)
        : out_(out),
          window_(std::max<std::size_t>(window, 1)),
          thread_([this] { write_loop(); }) {}
    ~ReplyWriter() { close(); }

    ReplyWriter(const ReplyWriter&) = delete;
    ReplyWriter& operator=(const ReplyWriter&) = delete;

    /// Queue the next reply; rethrows a failure of the writer thread.
    void push(Pending pending) {
        std::unique_lock<std::mutex> lock(mu_);
        room_cv_.wait(lock, [&] { return queue_.size() < window_ || error_; });
        if (error_) std::rethrow_exception(error_);
        queue_.push_back(std::move(pending));
        // The writer sleeps only on an empty queue.
        if (queue_.size() == 1) ready_cv_.notify_one();
    }

    /// Emit every queued reply, stop the writer, rethrow its failure.
    void finish() {
        close();
        if (error_) std::rethrow_exception(error_);
    }

private:
    void close() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        ready_cv_.notify_one();
        if (thread_.joinable()) thread_.join();
    }

    void write_loop() {
        obs::set_thread_name("serve-writer");
        std::unique_lock<std::mutex> lock(mu_);
        try {
            while (!queue_.empty() || !closed_) {
                if (queue_.empty()) {
                    lock.unlock();
                    out_.flush();
                    lock.lock();
                    ready_cv_.wait(lock,
                                   [&] { return closed_ || !queue_.empty(); });
                    continue;
                }
                // Only this thread pops, and push_back keeps references to
                // existing elements valid, so the front needs no lock.
                Pending& next = queue_.front();
                lock.unlock();
                if (next.is_future &&
                    next.future.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
                    out_.flush();
                    next.future.wait();
                }
                emit(next);
                lock.lock();
                queue_.pop_front();
                // The reader waits only on a full window.
                if (queue_.size() + 1 == window_) room_cv_.notify_one();
            }
            lock.unlock();
            out_.flush();
        } catch (...) {
            if (!lock.owns_lock()) lock.lock();
            error_ = std::current_exception();
            room_cv_.notify_one();
        }
    }

    void emit(Pending& pending) {
        TRACE_SPAN("emit", "serve");
        if (!pending.is_future) {
            out_ << pending.immediate.dump() << '\n';
            return;
        }
        const Reply reply = pending.future.get();
        util::Json r = util::Json::object();
        r.set("ok", true);
        if (!pending.id.is_null()) r.set("id", pending.id);
        r.set("prediction", double(reply.prediction));
        r.set("model", reply.model_hash);
        r.set("lat_us", reply.latency_us);
        out_ << r.dump() << '\n';
    }

    std::ostream& out_;
    const std::size_t window_;
    std::mutex mu_;  // guards queue_, closed_, error_
    std::condition_variable ready_cv_;  ///< reader -> writer: queue non-empty
    std::condition_variable room_cv_;   ///< writer -> reader: window has room
    std::deque<Pending> queue_;
    bool closed_ = false;
    std::exception_ptr error_;
    std::thread thread_;  ///< last: starts once everything above exists
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      pool_(train::WorkerPool::resolve(options_.threads)),
      registry_(options_.cache_dir),
      batcher_(pool_, options_.batch, &metrics_) {
    // serve-status v3: the registry's quarantine view rides in every
    // snapshot.  Safe to call from the status thread - breakers_json()
    // takes the registry lock itself.
    metrics_.set_breaker_provider([this] { return registry_.breakers_json(); });
    if (!options_.status_file.empty())
        status_thread_ = std::thread([this] { status_loop(); });
}

Server::~Server() {
    batcher_.stop();
    {
        std::lock_guard<std::mutex> lock(status_mu_);
        status_stop_ = true;
    }
    status_cv_.notify_all();
    if (status_thread_.joinable()) status_thread_.join();
}

util::Json Server::error_response(const util::Json& id,
                                  const std::string& code,
                                  const std::string& detail,
                                  double retry_after_ms) {
    util::Json r = util::Json::object();
    r.set("ok", false);
    if (!id.is_null()) r.set("id", id);
    r.set("error", code);
    r.set("detail", detail);
    // Overloaded / degraded replies carry the backoff hint so clients can
    // sleep exactly as long as the queue (or the breaker) needs.
    if (retry_after_ms > 0.0) r.set("retry_after_ms", retry_after_ms);
    return r;
}

util::Json Server::handle_control(const util::Json& request,
                                  const std::string& op) {
    util::Json r = util::Json::object();
    r.set("ok", true);
    if (request.contains("id")) r.set("id", request.at("id"));
    r.set("op", op);

    if (op == "load") {
        if (!request.contains("path") && !request.contains("hash"))
            throw ServeError(ErrorCode::kBadRequest,
                             "load needs \"path\" or \"hash\"");
        const std::string key = request.contains("path")
                                    ? request.at("path").as_string()
                                    : request.at("hash").as_string();
        // Degraded mode: a target that just burned its error budget is
        // answered with kDegraded + retry_after_ms, not another attempt.
        registry_.check_quarantine(key);
        std::shared_ptr<const ServableModel> servable;
        try {
            if (request.contains("path")) {
                servable = registry_.load_file(key);
            } else {
                // Hot-load from the artifact store: index whatever the
                // train tier holds, then resolve the requested hash.
                registry_.scan_store();
                servable = registry_.resolve(key);
            }
        } catch (const std::exception& e) {
            registry_.record_load_failure(key, e.what());
            throw;
        }
        registry_.record_load_success(key);
        if (request.contains("alias"))
            registry_.set_alias(request.at("alias").as_string(),
                                servable->hash_hex);
        r.set("model", servable->hash_hex);
    } else if (op == "swap") {
        const std::string alias = request.contains("alias")
                                      ? request.at("alias").as_string()
                                      : "default";
        const std::string target = request.at("target").as_string();
        registry_.check_quarantine(target);
        try {
            registry_.set_alias(alias, target);
        } catch (const std::exception& e) {
            // set_alias resolves before re-pointing, so the alias still
            // names its last good servable; the breaker counts the miss.
            registry_.record_load_failure(target, e.what());
            throw;
        }
        registry_.record_load_success(target);
        r.set("alias", alias);
        r.set("model", registry_.resolve(alias)->hash_hex);
    } else if (op == "models") {
        util::Json models = util::Json::array();
        for (const auto& entry : registry_.list()) {
            util::Json e = util::Json::object();
            e.set("hash", entry.hash_hex);
            e.set("source", entry.source);
            util::Json aliases = util::Json::array();
            for (const auto& a : entry.aliases) aliases.push_back(a);
            e.set("aliases", std::move(aliases));
            e.set("features", double(entry.num_features));
            e.set("classes", double(entry.num_classes));
            e.set("live_clauses", double(entry.live_clauses));
            models.push_back(std::move(e));
        }
        r.set("models", std::move(models));
    } else if (op == "status") {
        r.set("status", metrics_.snapshot_json());
    } else if (op == "shutdown") {
        shutdown_requested_.store(true);
    } else {
        throw ServeError(ErrorCode::kBadRequest, "unknown op '" + op + "'");
    }
    return r;
}

Server::Pending Server::process_line(const std::string& line) {
    Pending pending;
    util::Json request;
    try {
        request = util::Json::parse(line);
        if (!request.is_object())
            throw ServeError(ErrorCode::kBadRequest,
                             "request must be a JSON object");
    } catch (const std::exception& e) {
        pending.immediate =
            error_response(util::Json(), error_code_name(ErrorCode::kBadRequest),
                           e.what());
        return pending;
    }

    if (request.contains("id")) pending.id = request.at("id");
    try {
        const std::string op =
            request.contains("op") ? request.at("op").as_string() : "predict";
        if (op != "predict") {
            pending.immediate = handle_control(request, op);
            return pending;
        }

        const std::string name = request.contains("model")
                                     ? request.at("model").as_string()
                                     : "default";
        // A quarantined target answers predict with kDegraded too - the
        // client should back off rather than hammer a broken model name.
        registry_.check_quarantine(name);
        auto servable = registry_.resolve(name);
        util::BitVector x =
            util::BitVector::from_string(request.at("x").as_string());
        std::optional<std::uint32_t> label;
        if (request.contains("label"))
            label = class_label(request.at("label"),
                                servable->model.num_classes());

        pending.future =
            batcher_.submit(std::move(servable), std::move(x), label);
        pending.is_future = true;
    } catch (const ServeError& e) {
        pending.immediate = error_response(pending.id, e.code_name(), e.what(),
                                           e.retry_after_ms());
    } catch (const std::exception& e) {
        pending.immediate = error_response(
            pending.id, error_code_name(ErrorCode::kBadRequest), e.what());
    }
    return pending;
}

int Server::run(std::istream& in, std::ostream& out) {
    if (!registry_.cache_dir().empty())
        registry_.scan_store();

    // Only the writer touches `out` now; a tie would flush it from this
    // thread before every read.
    std::ostream* const tied = in.tie(nullptr);
    ReplyWriter writer(out, options_.max_inflight);
    std::string line;
    while (!shutdown_requested_.load() && std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        Pending pending;
        {
            TRACE_SPAN("parse_submit", "serve");
            pending = process_line(line);
        }
        writer.push(std::move(pending));
    }

    // EOF or shutdown: wait for every accepted request, answer them all,
    // and leave a final status snapshot behind.
    batcher_.flush();
    writer.finish();
    in.tie(tied);
    if (!options_.status_file.empty()) write_status_file();
    return 0;
}

void Server::write_status_file() const {
    try {
        util::write_file_atomic(options_.status_file,
                                metrics_.snapshot_json().dump(2) + "\n");
    } catch (const std::exception&) {
        // Status reporting must never take down serving.
    }
}

void Server::status_loop() {
    obs::set_thread_name("serve-status");
    std::unique_lock<std::mutex> lock(status_mu_);
    const auto interval = std::chrono::duration<double>(
        options_.status_interval_s > 0 ? options_.status_interval_s : 1.0);
    while (!status_stop_) {
        status_cv_.wait_for(lock, interval, [&] { return status_stop_; });
        if (status_stop_) break;
        lock.unlock();
        write_status_file();
        lock.lock();
    }
}

}  // namespace matador::serve
